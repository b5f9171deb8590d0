package kernels

import (
	"context"
	"fmt"
	"math/rand"

	"balarch/internal/opcount"
)

// GridSpec describes the §3.3 relaxation decomposition: an N^d grid of
// points partitioned into tiles of side s, one tile per PE; every iteration
// each PE updates its M = s^d points with a (2d+1)-point weighted-average
// stencil (4d+1 flops per point) and exchanges one-deep faces with its
// neighbors (2·Θ(s^(d-1)) words per iteration).
type GridSpec struct {
	// Dim is the grid dimensionality d ≥ 1.
	Dim int
	// Size is the grid side N (points per dimension).
	Size int
	// Tile is the tile side s ≤ N; the paper sets s = M^(1/d).
	Tile int
	// Iters is the number of relaxation iterations to perform.
	Iters int
}

// Validate checks the spec's invariants.
func (s GridSpec) Validate() error {
	switch {
	case s.Dim < 1:
		return fmt.Errorf("kernels: grid dim=%d must be ≥ 1", s.Dim)
	case s.Size < 3:
		return fmt.Errorf("kernels: grid size=%d must be ≥ 3 (needs interior points)", s.Size)
	case s.Tile < 1 || s.Tile > s.Size:
		return fmt.Errorf("kernels: grid tile=%d must be in [1, N=%d]", s.Tile, s.Size)
	case s.Iters < 1:
		return fmt.Errorf("kernels: grid iters=%d must be ≥ 1", s.Iters)
	}
	return nil
}

// TileVolume returns s^d, the number of grid points a PE stores.
func (s GridSpec) TileVolume() int {
	v := 1
	for d := 0; d < s.Dim; d++ {
		v *= s.Tile
	}
	return v
}

// Memory returns the local memory footprint in words: the resident tile plus
// one-deep halo faces in every direction.
func (s GridSpec) Memory() int {
	face := 1
	for d := 0; d < s.Dim-1; d++ {
		face *= s.Tile
	}
	return s.TileVolume() + 2*s.Dim*face
}

// stencilOps is the flop cost of one (2d+1)-point weighted-average update:
// 2d+1 multiplies and 2d adds.
func (s GridSpec) stencilOps() int { return 4*s.Dim + 1 }

// Grid is a d-dimensional scalar field with Dirichlet boundaries: boundary
// points keep their initial values; relaxation updates interior points only.
type Grid struct {
	Lat  *Lattice
	Data []float64
}

// NewGrid allocates a zeroed N^d grid.
func NewGrid(dim, size int) *Grid {
	sizes := make([]int, dim)
	for d := range sizes {
		sizes[d] = size
	}
	lat := NewLattice(sizes...)
	return &Grid{Lat: lat, Data: make([]float64, lat.Len())}
}

// NewGridRandom fills an N^d grid with uniform values in [0, 1).
func NewGridRandom(dim, size int, rng *rand.Rand) *Grid {
	g := NewGrid(dim, size)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	return g
}

// Clone deep-copies the grid.
func (g *Grid) Clone() *Grid {
	out := &Grid{Lat: g.Lat, Data: make([]float64, len(g.Data))}
	copy(out.Data, g.Data)
	return out
}

// MaxAbsDiff returns the largest point-wise absolute difference.
func (g *Grid) MaxAbsDiff(other *Grid) float64 {
	var worst float64
	for i, v := range g.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// relaxPoint computes the weighted average of the (2d+1)-point von Neumann
// stencil at flat index idx: weight 1/2 on the center, 1/(4d) on each
// neighbor. Both the tiled and the reference paths use this single function
// so their arithmetic is bit-identical.
func relaxPoint(src []float64, lat *Lattice, idx int) float64 {
	d := lat.Dim()
	w0, wn := 0.5, 1.0/(4.0*float64(d))
	sum := w0 * src[idx]
	for k := 0; k < d; k++ {
		st := lat.Stride(k)
		sum += wn*src[idx-st] + wn*src[idx+st]
	}
	return sum
}

// RelaxReference performs iters Jacobi sweeps on a copy of g with no tiling,
// the ground truth for validating the tiled kernel.
func RelaxReference(g *Grid, iters int) *Grid {
	cur, next := g.Clone(), g.Clone()
	coords := make([]int, g.Lat.Dim())
	for it := 0; it < iters; it++ {
		for idx := range cur.Data {
			cur.Lat.Coords(idx, coords)
			if cur.Lat.OnBoundary(coords) {
				next.Data[idx] = cur.Data[idx]
				continue
			}
			next.Data[idx] = relaxPoint(cur.Data, cur.Lat, idx)
		}
		cur, next = next, cur
	}
	return cur
}

// RelaxTiled performs the same Jacobi sweeps organized tile by tile per the
// §3.3 decomposition, counting the stencil flops and the per-iteration halo
// traffic each tile exchanges with its neighbors. The numeric result is
// bit-identical to RelaxReference because Jacobi updates read only the
// previous iterate.
func RelaxTiled(spec GridSpec, g *Grid, c *opcount.Counter) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.Lat.Dim() != spec.Dim || g.Lat.Sizes[0] != spec.Size {
		return nil, fmt.Errorf("kernels: grid shape %v does not match spec %d^%d",
			g.Lat.Sizes, spec.Size, spec.Dim)
	}
	cur, next := g.Clone(), g.Clone()
	d := spec.Dim
	coords := make([]int, d)
	tileLo := make([]int, d)

	for it := 0; it < spec.Iters; it++ {
		// Enumerate tiles by their low corner.
		forEachTile(spec, tileLo, func() {
			// Halo traffic: for each face with a neighboring tile
			// (i.e. the tile edge is not the grid edge), this PE
			// receives the neighbor's face and sends its own.
			for k := 0; k < d; k++ {
				area := tileFaceArea(spec, tileLo, k)
				if tileLo[k] > 0 {
					c.Read(area)
					c.Write(area)
				}
				if tileLo[k]+tileExtent(spec, tileLo[k]) < spec.Size {
					c.Read(area)
					c.Write(area)
				}
			}
			// Update every non-boundary point of the tile.
			var update func(dim, base int)
			update = func(dim, base int) {
				if dim == d {
					cur.Lat.Coords(base, coords)
					if cur.Lat.OnBoundary(coords) {
						return
					}
					next.Data[base] = relaxPoint(cur.Data, cur.Lat, base)
					c.Ops(spec.stencilOps())
					return
				}
				ext := tileExtent(spec, tileLo[dim])
				for o := 0; o < ext; o++ {
					update(dim+1, base+(tileLo[dim]+o)*cur.Lat.Stride(dim))
				}
			}
			update(0, 0)
		})
		// Boundary points carry over unchanged.
		for idx := range cur.Data {
			cur.Lat.Coords(idx, coords)
			if cur.Lat.OnBoundary(coords) {
				next.Data[idx] = cur.Data[idx]
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}

// CountRelaxTiled returns the counts RelaxTiled makes, without arithmetic,
// in O(d + N/s) time. Every per-tile count is a product over dimensions of
// a term set by the tile's position in that dimension alone — a face's
// area is the other dimensions' extents, a tile's updatable points are its
// per-dimension interior runs — so the sum over all tiles factors into
// sums over the N/s tile positions of one dimension. The factoring is exact
// in uint64, wraparound included.
func CountRelaxTiled(spec GridSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	// Over one dimension's tile positions: faces shared with a neighbour
	// tile, and points interior to the grid.
	var faces, interior uint64
	for lo := 0; lo < spec.Size; lo += spec.Tile {
		hi := lo + tileExtent(spec, lo)
		if lo > 0 {
			faces++
		}
		if hi < spec.Size {
			faces++
		}
		interior += uint64(max(0, min(hi, spec.Size-1)-max(lo, 1)))
	}
	// Σ_tiles Σ_k faces_k·Π_{j≠k} extent_j = d · faces · N^(d-1), each
	// face read and written once; Σ_tiles Π_k interior_k = interior^d.
	faceArea, points := uint64(1), uint64(1)
	for range spec.Dim - 1 {
		faceArea *= uint64(spec.Size)
	}
	for range spec.Dim {
		points *= interior
	}
	iters := uint64(spec.Iters)
	halo := uint64(spec.Dim) * faces * faceArea * iters
	return opcount.Totals{
		Ops:    points * uint64(spec.stencilOps()) * iters,
		Reads:  halo,
		Writes: halo,
	}, nil
}

// tileExtent returns the extent of a tile starting at lo (ragged at the far
// edge).
func tileExtent(spec GridSpec, lo int) int { return min(spec.Tile, spec.Size-lo) }

// tileFaceArea returns the area of the tile's face normal to dimension k.
func tileFaceArea(spec GridSpec, tileLo []int, k int) int {
	area := 1
	for j := 0; j < spec.Dim; j++ {
		if j != k {
			area *= tileExtent(spec, tileLo[j])
		}
	}
	return area
}

// forEachTile invokes fn with tileLo set to each tile's low corner.
func forEachTile(spec GridSpec, tileLo []int, fn func()) {
	var rec func(dim int)
	rec = func(dim int) {
		if dim == spec.Dim {
			fn()
			return
		}
		for lo := 0; lo < spec.Size; lo += spec.Tile {
			tileLo[dim] = lo
			rec(dim + 1)
		}
	}
	rec(0)
}

// GridRatioSweep measures the relaxation ratio across tile sizes for the E4
// experiment. size should be ≫ the largest tile so interior tiles dominate.
// Points run in parallel via Sweep.
func GridRatioSweep(ctx context.Context, dim, size, iters int, tiles []int) ([]RatioPoint, error) {
	return countSweep(ctx, tiles, func(tile int) GridSpec { return GridSpec{Dim: dim, Size: size, Tile: tile, Iters: iters} }, CountRelaxTiled)
}
