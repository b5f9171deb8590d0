package kernels

import (
	"context"
	"fmt"

	"balarch/internal/opcount"
)

// LUSpec describes the §3.2 blocked triangularization scheme: the N×N matrix
// is processed in N/b panel steps with b×b tiles; each step factorizes one
// diagonal tile, solves the row and column panels against it, and applies a
// rank-b update to the trailing matrix, streaming tiles through a local
// memory that holds at most three of them.
type LUSpec struct {
	// N is the matrix dimension.
	N int
	// Block is the tile side b; the paper sets b = √M.
	Block int
}

// Validate checks the spec's invariants.
func (s LUSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("kernels: LU N=%d must be positive", s.N)
	}
	if s.Block <= 0 || s.Block > s.N {
		return fmt.Errorf("kernels: LU block=%d must be in [1, N=%d]", s.Block, s.N)
	}
	return nil
}

// Memory returns the local memory footprint in words: three resident b×b
// tiles (the multiplier tile, the update tile, and the destination tile
// during the trailing update).
func (s LUSpec) Memory() int { return 3 * s.Block * s.Block }

// Steps returns the number of panel steps.
func (s LUSpec) Steps() int { return (s.N + s.Block - 1) / s.Block }

// BlockedLU factorizes a (in a copy) into unit-lower L and upper U stored
// packed in the returned matrix (L below the diagonal with implicit unit
// diagonal, U on and above), using the tiled right-looking scheme and
// recording exact arithmetic and I/O word counts. No pivoting is performed;
// callers must supply a matrix for which elimination without pivoting is
// stable (tests use diagonally dominant matrices).
func BlockedLU(spec LUSpec, a *Dense, c *opcount.Counter) (*Dense, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n, bs := spec.N, spec.Block
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("kernels: LU operand must be %d×%d", n, n)
	}
	m := a.Clone()

	for s0 := 0; s0 < n; s0 += bs {
		r := min(bs, n-s0) // diagonal tile side this step

		// Factorize the diagonal tile in local memory:
		// read r², factor, write r².
		c.Read(r * r)
		for k := s0; k < s0+r; k++ {
			piv := m.At(k, k)
			if piv == 0 {
				return nil, fmt.Errorf("kernels: zero pivot at %d (no pivoting)", k)
			}
			for i := k + 1; i < s0+r; i++ {
				l := m.At(i, k) / piv
				c.Ops(1)
				m.Set(i, k, l)
				for j := k + 1; j < s0+r; j++ {
					m.Set(i, j, m.At(i, j)-l*m.At(k, j))
				}
				c.Ops(2 * (s0 + r - k - 1))
			}
		}
		c.Write(r * r)

		// Column panel: L[i][s] = A[i][s]·U_ss⁻¹, tile by tile. The
		// factored diagonal tile stays resident.
		for i0 := s0 + r; i0 < n; i0 += bs {
			ri := min(bs, n-i0)
			c.Read(ri * r)
			for i := i0; i < i0+ri; i++ {
				for k := s0; k < s0+r; k++ {
					sum := m.At(i, k)
					for j := s0; j < k; j++ {
						sum -= m.At(i, j) * m.At(j, k)
					}
					m.Set(i, k, sum/m.At(k, k))
					c.Ops(2*(k-s0) + 1)
				}
			}
			c.Write(ri * r)
		}

		// Row panel: U[s][j] = L_ss⁻¹·A[s][j] (unit lower solve).
		for j0 := s0 + r; j0 < n; j0 += bs {
			cj := min(bs, n-j0)
			c.Read(r * cj)
			for j := j0; j < j0+cj; j++ {
				for k := s0; k < s0+r; k++ {
					sum := m.At(k, j)
					for i := s0; i < k; i++ {
						sum -= m.At(k, i) * m.At(i, j)
					}
					m.Set(k, j, sum)
					c.Ops(2 * (k - s0))
				}
			}
			c.Write(r * cj)
		}

		// Trailing update: A[i][j] -= L[i][s]·U[s][j]. The L tile is
		// held across the inner j sweep.
		for i0 := s0 + r; i0 < n; i0 += bs {
			ri := min(bs, n-i0)
			c.Read(ri * r) // L[i][s] tile, held for the row sweep
			for j0 := s0 + r; j0 < n; j0 += bs {
				cj := min(bs, n-j0)
				c.Read(r*cj + ri*cj) // U tile + destination tile
				for i := i0; i < i0+ri; i++ {
					for j := j0; j < j0+cj; j++ {
						sum := m.At(i, j)
						for k := s0; k < s0+r; k++ {
							sum -= m.At(i, k) * m.At(k, j)
						}
						m.Set(i, j, sum)
					}
				}
				c.Ops(2 * ri * r * cj)
				c.Write(ri * cj)
			}
		}
	}
	return m, nil
}

// CountBlockedLU returns the counts BlockedLU records without arithmetic,
// in O(N) time, as the sum of luStep over the panel steps. The totals are
// exact modulo 2^64.
func CountBlockedLU(spec LUSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	var t opcount.Totals
	for s0 := 0; s0 < spec.N; s0 += spec.Block {
		st := luStep(spec.N, spec.Block, s0)
		t.Ops += st.Ops
		t.Reads += st.Reads
		t.Writes += st.Writes
	}
	return t, nil
}

// luStep returns the counts of the one panel step of the N×N, block-bs
// triangularization whose diagonal tile starts at s0. For a diagonal tile of
// side r, with rest = N − s0 − r trailing rows and columns in k = ⌈rest/b⌉
// tiles, the panels and the trailing update are sums over tiles whose sides
// add up to rest. Per step the ratio stays near 2b/3 until the trailing
// matrix shrinks to a few tiles: §3.2's "the same ratio is maintained for
// all the steps".
func luStep(n, bs, s0 int) opcount.Totals {
	r := uint64(min(bs, n-s0))
	rest := uint64(n - s0 - int(r))
	k := (rest + uint64(bs) - 1) / uint64(bs)
	var t opcount.Totals

	// Diagonal tile: flops = Σ_{m=1}^{r-1} m + 2m² .
	t.Reads += r * r
	for m := uint64(1); m < r; m++ {
		t.Ops += m + 2*m*m
	}
	t.Writes += r * r

	// Column panel: each of its rest rows is a triangular solve
	// against U_ss, Σ_{k=0}^{r-1} (2k+1) = r² flops. Row panel: each
	// of its rest columns is a unit-lower solve, Σ_{k=0}^{r-1} 2k =
	// r(r-1) flops. Each panel tile is read and written once.
	t.Reads += 2 * r * rest
	t.Ops += rest*r*r + rest*r*(r-1)
	t.Writes += 2 * r * rest

	// Trailing update: each of the k row tiles reads its L tile
	// once (r·rest in all); each of the k² tile pairs reads a U tile
	// and a destination tile (k·r·rest + rest²), updates it at
	// 2·r flops a point and writes it back.
	t.Reads += r*rest + k*r*rest + rest*rest
	t.Ops += 2 * r * rest * rest
	t.Writes += rest * rest
	return t
}

// LURatioSweep measures the blocked triangularization ratio across block
// sizes at fixed N for the E3 experiment. Points run in parallel via Sweep.
func LURatioSweep(ctx context.Context, n int, blocks []int) ([]RatioPoint, error) {
	return countSweep(ctx, blocks, func(bs int) LUSpec { return LUSpec{N: n, Block: bs} }, CountBlockedLU)
}

// ReconstructLU multiplies the packed L and U factors back together, for
// validating BlockedLU against the original matrix.
func ReconstructLU(packed *Dense) *Dense {
	n := packed.Rows
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			// (L·U)(i,j) = Σ_k L(i,k)·U(k,j), L unit lower, U upper.
			hi := min(i, j)
			for k := 0; k <= hi; k++ {
				var l float64
				if k == i {
					l = 1
				} else {
					l = packed.At(i, k)
				}
				sum += l * packed.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}
