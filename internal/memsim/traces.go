package memsim

import "fmt"

// Matrix operand bases: A, B, C live at disjoint address ranges so traces
// from different operands never alias. Together they fill [0, 3n²) and both
// traces touch every element, so the addresses are already dense word ids.
func matmulBases(n int) (baseA, baseB, baseC uint64) {
	sz := uint64(n) * uint64(n)
	return 0, sz, 2 * sz
}

// NaiveMatMulTrace generates the word-level address stream of the textbook
// i-j-k triple loop for an n×n product: for each (i, j), read A(i,k) and
// B(k,j) for all k, then write C(i,j). With a cache smaller than a full
// matrix row set this pattern thrashes on B's column accesses.
func NaiveMatMulTrace(n int) (Trace, error) {
	if n <= 0 {
		return Trace{}, fmt.Errorf("memsim: n=%d must be positive", n)
	}
	baseA, baseB, baseC := matmulBases(n)
	un := uint64(n)
	trace := make([]Ref, 0, 2*un*un*un+un*un)
	for i := uint64(0); i < un; i++ {
		for j := uint64(0); j < un; j++ {
			for k := uint64(0); k < un; k++ {
				trace = append(trace,
					Ref{Addr: baseA + i*un + k},
					Ref{Addr: baseB + k*un + j})
			}
			trace = append(trace, Ref{Addr: baseC + i*un + j, Write: true})
		}
	}
	return Trace{refs: trace, words: 3 * n * n}, nil
}

// BlockedMatMulTrace generates the address stream of the §3.1 blocked
// product with b×b output blocks: for each output block, stream A's column
// segments and B's row segments past the resident block. A cache of ≈ b²
// words captures the reuse this schedule exposes.
func BlockedMatMulTrace(n, b int) (Trace, error) {
	if n <= 0 || b <= 0 || b > n {
		return Trace{}, fmt.Errorf("memsim: invalid blocked trace shape n=%d b=%d", n, b)
	}
	baseA, baseB, baseC := matmulBases(n)
	un := uint64(n)
	// Each of the ⌈n/b⌉² output blocks streams n steps of its rows of A,
	// its columns of B and its rows×cols accumulators: summed over the
	// blocks, 2n²⌈n/b⌉ + n³ references.
	blocks := (n + b - 1) / b
	trace := make([]Ref, 0, 2*n*n*blocks+n*n*n)
	for i0 := 0; i0 < n; i0 += b {
		rows := min(b, n-i0)
		for j0 := 0; j0 < n; j0 += b {
			cols := min(b, n-j0)
			for k := uint64(0); k < un; k++ {
				for i := 0; i < rows; i++ {
					trace = append(trace, Ref{Addr: baseA + uint64(i0+i)*un + k})
				}
				for j := 0; j < cols; j++ {
					trace = append(trace, Ref{Addr: baseB + k*un + uint64(j0+j)})
				}
				// The b×b accumulator block is touched every
				// rank-1 update; these references are what the
				// cache must retain for the schedule to win.
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						trace = append(trace, Ref{
							Addr:  baseC + uint64(i0+i)*un + uint64(j0+j),
							Write: true,
						})
					}
				}
			}
		}
	}
	return Trace{refs: trace, words: 3 * n * n}, nil
}
