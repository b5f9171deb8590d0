package kernels

import (
	"context"
	"fmt"

	"balarch/internal/opcount"
)

// MatMulSpec describes the paper's §3.1 decomposition of an N×N matrix
// product: the result is computed in (N/b)² steps, each holding one b×b
// output block resident in local memory while streaming a b×N strip of the
// first operand and an N×b strip of the second past it, one column/row pair
// at a time.
type MatMulSpec struct {
	// N is the matrix dimension.
	N int
	// Block is the output block side b; the paper sets b = √M.
	Block int
}

// Validate checks the spec's invariants.
func (s MatMulSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("kernels: matmul N=%d must be positive", s.N)
	}
	if s.Block <= 0 || s.Block > s.N {
		return fmt.Errorf("kernels: matmul block=%d must be in [1, N=%d]", s.Block, s.N)
	}
	return nil
}

// Memory returns the local memory footprint of one step in words: the
// resident b×b output block plus the two length-b streaming buffers.
func (s MatMulSpec) Memory() int { return s.Block*s.Block + 2*s.Block }

// Steps returns the number of output blocks, counting ragged edges.
func (s MatMulSpec) Steps() int {
	nb := (s.N + s.Block - 1) / s.Block
	return nb * nb
}

// BlockedMatMul multiplies a × b with the §3.1 scheme, recording exact
// arithmetic and I/O word counts. a and b must be N×N per the spec. The
// returned product is bit-identical in shape to the reference product and is
// validated against MulRef in tests.
//
// Counting convention: loading one column segment of a and one row segment
// of b counts their word lengths as reads; a rank-1 update of an r×c block
// counts 2·r·c flops (multiply + add); storing the finished block counts r·c
// writes. The block itself stays resident, so it generates no traffic until
// the final store — this residency is exactly what buys the √M ratio.
func BlockedMatMul(spec MatMulSpec, a, b *Dense, c *opcount.Counter) (*Dense, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n, bs := spec.N, spec.Block
	if a.Rows != n || a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, fmt.Errorf("kernels: matmul operands must be %d×%d", n, n)
	}
	out := NewDense(n, n)
	colBuf := make([]float64, bs) // streamed segment of a's column k
	rowBuf := make([]float64, bs) // streamed segment of b's row k
	block := make([]float64, bs*bs)

	for i0 := 0; i0 < n; i0 += bs {
		rows := min(bs, n-i0)
		for j0 := 0; j0 < n; j0 += bs {
			cols := min(bs, n-j0)
			for i := range block[:rows*cols] {
				block[i] = 0
			}
			for k := 0; k < n; k++ {
				// Stream one column segment of a and one row
				// segment of b into local memory.
				for i := 0; i < rows; i++ {
					colBuf[i] = a.At(i0+i, k)
				}
				c.Read(rows)
				for j := 0; j < cols; j++ {
					rowBuf[j] = b.At(k, j0+j)
				}
				c.Read(cols)
				// Rank-1 update of the resident block.
				for i := 0; i < rows; i++ {
					av := colBuf[i]
					for j := 0; j < cols; j++ {
						block[i*cols+j] += av * rowBuf[j]
					}
				}
				c.Ops(2 * rows * cols)
			}
			// Store the finished output block.
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					out.Set(i0+i, j0+j, block[i*cols+j])
				}
			}
			c.Write(rows * cols)
		}
	}
	return out, nil
}

// CountBlockedMatMul returns the counts BlockedMatMul records, in closed
// form: each of the ⌈N/b⌉² output blocks streams its N column/row pairs,
// so the row blocks' heights and the column blocks' widths each sum to N
// and Reads = 2·N²·⌈N/b⌉, Ops = 2N³, Writes = N². The experiments can so
// measure the N ≫ M regime the paper assumes at any N. Like the counters
// they replace, the totals are exact modulo 2^64.
func CountBlockedMatMul(spec MatMulSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	n, nb := uint64(spec.N), uint64((spec.N+spec.Block-1)/spec.Block)
	return opcount.Totals{
		Reads:  2 * n * n * nb,
		Ops:    2 * n * n * n,
		Writes: n * n,
	}, nil
}

// MatMulRatioSweep measures the achievable Ccomp/Cio of the blocked scheme
// across a range of block sizes at fixed N, returning (memory, ratio) pairs
// for the E2 experiment. N should be ≫ the largest block so the measured
// ratios sit in the paper's asymptotic regime. Points run in parallel via
// Sweep.
func MatMulRatioSweep(ctx context.Context, n int, blocks []int) ([]RatioPoint, error) {
	return countSweep(ctx, blocks, func(bs int) MatMulSpec { return MatMulSpec{N: n, Block: bs} }, CountBlockedMatMul)
}

// RatioPoint pairs a local memory size with the exact counts measured at
// that size; Ratio() is the achieved Ccomp/Cio.
type RatioPoint struct {
	Memory int
	Totals opcount.Totals
}

// Ratio returns the measured Ccomp/Cio at this point.
func (p RatioPoint) Ratio() float64 { return p.Totals.Ratio() }
