package kernels

import (
	"context"
	"fmt"

	"balarch/internal/opcount"
)

// The §3.6 kernels: computations whose inputs and intermediate results are
// used only a constant number of times on average, so no local memory size
// reduces their I/O requirement below a constant fraction of the arithmetic
// — the PE cannot be rebalanced by memory alone.

// MatVecSpec describes a blocked y = A·x with an N-long result computed in
// chunks of Chunk rows held resident while the matrix streams past once.
type MatVecSpec struct {
	// N is the matrix dimension.
	N int
	// Chunk is the number of result elements held in local memory.
	Chunk int
}

// Validate checks the spec's invariants.
func (s MatVecSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("kernels: matvec N=%d must be positive", s.N)
	}
	if s.Chunk <= 0 || s.Chunk > s.N {
		return fmt.Errorf("kernels: matvec chunk=%d must be in [1, N=%d]", s.Chunk, s.N)
	}
	return nil
}

// Memory returns the local footprint in words: the resident result chunk,
// one streamed column segment of A, and the current x element.
func (s MatVecSpec) Memory() int { return 2*s.Chunk + 1 }

// MatVec computes y = a·x with the row-chunked streaming scheme, counting
// flops and I/O words. Every element of A is read exactly once; x is re-read
// once per row chunk; y is written once. The ratio Ccomp/Cio therefore tends
// to 2 regardless of the chunk size — the paper's impossibility result.
func MatVec(spec MatVecSpec, a *Dense, x []float64, c *opcount.Counter) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.N
	if a.Rows != n || a.Cols != n || len(x) != n {
		return nil, fmt.Errorf("kernels: matvec operands must be %d×%d and length %d", n, n, n)
	}
	y := make([]float64, n)
	seg := make([]float64, spec.Chunk)
	for r0 := 0; r0 < n; r0 += spec.Chunk {
		rows := min(spec.Chunk, n-r0)
		local := make([]float64, rows) // resident y chunk
		for k := 0; k < n; k++ {
			xk := x[k]
			c.Read(1) // x[k]
			for i := 0; i < rows; i++ {
				seg[i] = a.At(r0+i, k)
			}
			c.Read(rows) // column segment of A
			for i := 0; i < rows; i++ {
				local[i] += xk * seg[i]
			}
			c.Ops(2 * rows)
		}
		copy(y[r0:r0+rows], local)
		c.Write(rows)
	}
	return y, nil
}

// CountMatVec returns the counts MatVec would record, in O(N/chunk) time.
func CountMatVec(spec MatVecSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	n := uint64(spec.N)
	var t opcount.Totals
	for r0 := 0; r0 < spec.N; r0 += spec.Chunk {
		rows := uint64(min(spec.Chunk, spec.N-r0))
		t.Reads += n + n*rows
		t.Ops += 2 * n * rows
		t.Writes += rows
	}
	return t, nil
}

// TriSolveSpec describes a blocked forward substitution L·x = b with x
// computed Chunk elements at a time; previously computed x chunks are
// re-read from outside as needed, and every element of L streams past once.
type TriSolveSpec struct {
	// N is the system dimension.
	N int
	// Chunk is the number of solution elements computed per block.
	Chunk int
}

// Validate checks the spec's invariants.
func (s TriSolveSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("kernels: trisolve N=%d must be positive", s.N)
	}
	if s.Chunk <= 0 || s.Chunk > s.N {
		return fmt.Errorf("kernels: trisolve chunk=%d must be in [1, N=%d]", s.Chunk, s.N)
	}
	return nil
}

// Memory returns the local footprint in words: the resident x/b chunk, one
// prior-x buffer, and one streamed row segment.
func (s TriSolveSpec) Memory() int { return 3 * s.Chunk }

// TriSolve solves l·x = b by chunked forward substitution, counting flops
// and I/O words. The lower-triangular half of l is read exactly once; prior
// x chunks are re-read once per later chunk; the ratio tends to 2 for all
// chunk sizes — I/O bounded like matvec.
func TriSolve(spec TriSolveSpec, l *Dense, b []float64, c *opcount.Counter) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.N
	if l.Rows != n || l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("kernels: trisolve operands must be %d×%d and length %d", n, n, n)
	}
	x := make([]float64, n)
	prior := make([]float64, spec.Chunk)
	seg := make([]float64, spec.Chunk)
	for c0 := 0; c0 < n; c0 += spec.Chunk {
		rows := min(spec.Chunk, n-c0)
		local := make([]float64, rows)
		copy(local, b[c0:c0+rows])
		c.Read(rows) // b chunk

		// Eliminate contributions from previously solved chunks.
		for p0 := 0; p0 < c0; p0 += spec.Chunk {
			pl := min(spec.Chunk, c0-p0)
			copy(prior[:pl], x[p0:p0+pl])
			c.Read(pl) // prior x chunk, re-read from outside
			for i := 0; i < rows; i++ {
				row := c0 + i
				for j := 0; j < pl; j++ {
					seg[j] = l.At(row, p0+j)
				}
				c.Read(pl) // row segment of L
				sum := local[i]
				for j := 0; j < pl; j++ {
					sum -= seg[j] * prior[j]
				}
				local[i] = sum
				c.Ops(2 * pl)
			}
		}

		// Solve the diagonal block, streaming its rows.
		for i := 0; i < rows; i++ {
			row := c0 + i
			for j := 0; j <= i; j++ {
				seg[j] = l.At(row, c0+j)
			}
			c.Read(i + 1) // row segment incl. diagonal
			sum := local[i]
			for j := 0; j < i; j++ {
				sum -= seg[j] * local[j]
			}
			c.Ops(2*i + 1)
			if seg[i] == 0 {
				return nil, fmt.Errorf("kernels: zero diagonal at %d", row)
			}
			local[i] = sum / seg[i]
		}
		copy(x[c0:c0+rows], local)
		c.Write(rows)
	}
	return x, nil
}

// CountTriSolve returns the counts TriSolve would record, in O((N/chunk)²)
// time.
func CountTriSolve(spec TriSolveSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	var t opcount.Totals
	for c0 := 0; c0 < spec.N; c0 += spec.Chunk {
		rows := uint64(min(spec.Chunk, spec.N-c0))
		t.Reads += rows
		for p0 := 0; p0 < c0; p0 += spec.Chunk {
			pl := uint64(min(spec.Chunk, c0-p0))
			t.Reads += pl + rows*pl
			t.Ops += 2 * rows * pl
		}
		for i := uint64(0); i < rows; i++ {
			t.Reads += i + 1
			t.Ops += 2*i + 1
		}
		t.Writes += rows
	}
	return t, nil
}

// MatVecRatioSweep measures the matvec ratio across chunk sizes for the E7
// experiment, demonstrating the flat (I/O-bounded) profile. Points run in
// parallel via Sweep.
func MatVecRatioSweep(ctx context.Context, n int, chunks []int) ([]RatioPoint, error) {
	return countSweep(ctx, chunks, func(ch int) MatVecSpec { return MatVecSpec{N: n, Chunk: ch} }, CountMatVec)
}

// TriSolveRatioSweep measures the trisolve ratio across chunk sizes for the
// E7 experiment. Points run in parallel via Sweep.
func TriSolveRatioSweep(ctx context.Context, n int, chunks []int) ([]RatioPoint, error) {
	return countSweep(ctx, chunks, func(ch int) TriSolveSpec { return TriSolveSpec{N: n, Chunk: ch} }, CountTriSolve)
}
