// Package kernels provides real, instrumented implementations of every
// computation analyzed in Kung (1985) §3: blocked matrix multiplication,
// blocked Gaussian elimination (the §3.2 triangularization),
// d-dimensional grid relaxation, the radix-2 and blocked external FFT,
// two-phase external merge sort, and the I/O-bounded kernels (matrix-vector
// product, triangular solve).
//
// Each kernel computes real numerics (validated in tests against reference
// implementations) while threading an opcount.Counter through the paper's
// decomposition scheme so the experiments can measure Ccomp and Cio exactly.
// Kernels that are too slow to run at the paper's N ≫ M regime also provide
// Count variants that walk the same block structure without arithmetic,
// producing identical counts in time proportional to the number of blocks.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("kernels: invalid matrix shape %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseRandom fills a rows×cols matrix with uniform values in [-1, 1)
// from the given source, for reproducible tests and experiments.
func NewDenseRandom(rows, cols int, rng *rand.Rand) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether m and other agree element-wise within tol.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise absolute difference.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range m.Data {
		worst = math.Max(worst, math.Abs(v-other.Data[i]))
	}
	return worst
}

// MulRef computes the reference product m × other with the textbook triple
// loop, used to validate the blocked kernels.
func (m *Dense) MulRef(other *Dense) *Dense {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("kernels: dimension mismatch %d×%d by %d×%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewDense(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

// DiagonallyDominant returns a random n×n matrix with each diagonal element
// boosted above its row's off-diagonal absolute sum, guaranteeing that
// Gaussian elimination without pivoting is numerically safe.
func DiagonallyDominant(n int, rng *rand.Rand) *Dense {
	m := NewDenseRandom(n, n, rng)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, rowSum+1)
	}
	return m
}
