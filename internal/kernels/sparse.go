package kernels

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"balarch/internal/opcount"
)

// Paper §4 lists "sparse matrix operations that have relatively high I/O
// requirements" among the scientific computations motivating assumption (6).
// This file makes that remark concrete: sparse matrix–vector multiplication
// in CSR form touches each stored element once for two flops, so
// R(M) ≤ 2 + ε for every M — it sits in the §3.6 memory-inelastic family,
// which is why the paper's aggregate assumption (6) uses α² as the *floor*
// across scientific workloads.

// CSR is a sparse matrix in compressed sparse row form.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1; row i occupies [RowPtr[i], RowPtr[i+1])
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NNZ returns the number of stored elements.
func (m *CSR) NNZ() int { return len(m.Val) }

// Validate checks structural invariants.
func (m *CSR) Validate() error {
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("kernels: CSR shape %d×%d must be positive", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("kernels: CSR RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("kernels: CSR pointer structure inconsistent")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("kernels: CSR RowPtr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] < 0 || m.ColIdx[k] >= m.Cols {
				return fmt.Errorf("kernels: CSR column %d out of range at row %d", m.ColIdx[k], i)
			}
		}
	}
	return nil
}

// NewRandomCSR builds an n×n sparse matrix with approximately nnzPerRow
// stored elements per row at uniformly random columns (deduplicated,
// sorted), values in [-1, 1).
func NewRandomCSR(n, nnzPerRow int, rng *rand.Rand) *CSR {
	if n <= 0 || nnzPerRow <= 0 || nnzPerRow > n {
		panic(fmt.Sprintf("kernels: bad sparse shape n=%d nnzPerRow=%d", n, nnzPerRow))
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		cols := map[int]struct{}{}
		for len(cols) < nnzPerRow {
			cols[rng.Intn(n)] = struct{}{}
		}
		idx := make([]int, 0, nnzPerRow)
		for cIdx := range cols {
			idx = append(idx, cIdx)
		}
		sort.Ints(idx)
		for _, cIdx := range idx {
			m.ColIdx = append(m.ColIdx, cIdx)
			m.Val = append(m.Val, 2*rng.Float64()-1)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// SpMVSpec describes the streaming sparse y = A·x: result rows are computed
// in chunks of Chunk held resident; the CSR stream (values + column
// indices, each one word) passes once; x is read on demand, one word per
// stored element (the "relatively high I/O requirement" — sparse access
// defeats the blocking that dense matmul enjoys).
type SpMVSpec struct {
	// N is the matrix dimension.
	N int
	// Chunk is the number of result rows held in local memory.
	Chunk int
}

// Validate checks the spec's invariants.
func (s SpMVSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("kernels: spmv N=%d must be positive", s.N)
	}
	if s.Chunk <= 0 || s.Chunk > s.N {
		return fmt.Errorf("kernels: spmv chunk=%d must be in [1, N=%d]", s.Chunk, s.N)
	}
	return nil
}

// Memory returns the local footprint in words: the resident result chunk
// plus streaming buffers.
func (s SpMVSpec) Memory() int { return s.Chunk + 3 }

// SpMV computes y = a·x with exact counting. Each stored element costs: one
// value word + one index word read, one x word read (random access — no
// reuse is assumed below M = N), and 2 flops. Output rows are written once.
func SpMV(spec SpMVSpec, a *CSR, x []float64, c *opcount.Counter) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if a.Rows != spec.N || a.Cols != spec.N || len(x) != spec.N {
		return nil, fmt.Errorf("kernels: spmv operands must be %d×%d and length %d", spec.N, spec.N, spec.N)
	}
	y := make([]float64, spec.N)
	for r0 := 0; r0 < spec.N; r0 += spec.Chunk {
		rows := min(spec.Chunk, spec.N-r0)
		local := make([]float64, rows)
		for i := 0; i < rows; i++ {
			row := r0 + i
			for k := a.RowPtr[row]; k < a.RowPtr[row+1]; k++ {
				c.Read(3) // value, column index, x[col]
				local[i] += a.Val[k] * x[a.ColIdx[k]]
				c.Ops(2)
			}
		}
		copy(y[r0:r0+rows], local)
		c.Write(rows)
	}
	return y, nil
}

// CountSpMV returns the counts SpMV would record, in O(1) time given the
// matrix's NNZ.
func CountSpMV(spec SpMVSpec, nnz int) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	if nnz < 0 {
		return opcount.Totals{}, fmt.Errorf("kernels: negative nnz %d", nnz)
	}
	return opcount.Totals{
		Ops:    2 * uint64(nnz),
		Reads:  3 * uint64(nnz),
		Writes: uint64(spec.N),
	}, nil
}

// SpMVRef is the straightforward reference used to validate SpMV.
func SpMVRef(a *CSR, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			y[i] += a.Val[k] * x[a.ColIdx[k]]
		}
	}
	return y
}

// SpMVRatioSweep measures the SpMV ratio across chunk sizes for the E7
// experiment: flat at 2/3·... — bounded by the constant 2 flops per 3
// streamed words, independent of memory.
func SpMVRatioSweep(ctx context.Context, n, nnzPerRow int, chunks []int) ([]RatioPoint, error) {
	nnz := n * nnzPerRow
	return countSweep(ctx, chunks, func(ch int) SpMVSpec { return SpMVSpec{N: n, Chunk: ch} },
		func(s SpMVSpec) (opcount.Totals, error) { return CountSpMV(s, nnz) })
}
