package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"balarch/internal/opcount"
)

func TestLattice(t *testing.T) {
	l := NewLattice(3, 4, 5)
	if l.Len() != 60 {
		t.Fatalf("Len = %d, want 60", l.Len())
	}
	if l.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", l.Dim())
	}
	coords := []int{2, 1, 3}
	idx := l.Index(coords)
	if idx != 2*20+1*5+3 {
		t.Errorf("Index(%v) = %d", coords, idx)
	}
	back := make([]int, 3)
	l.Coords(idx, back)
	for d := range coords {
		if back[d] != coords[d] {
			t.Errorf("Coords round trip: %v vs %v", back, coords)
		}
	}
	if !l.OnBoundary([]int{0, 2, 2}) {
		t.Error("face point not detected as boundary")
	}
	if l.OnBoundary([]int{1, 2, 3}) {
		t.Error("interior point reported as boundary")
	}
}

func TestLatticeRoundTripProperty(t *testing.T) {
	l := NewLattice(4, 7, 3, 5)
	out := make([]int, 4)
	f := func(i16 uint16) bool {
		idx := int(i16) % l.Len()
		l.Coords(idx, out)
		return l.Index(out) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatticePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLattice() },
		func() { NewLattice(3, 0) },
		func() { NewLattice(3, 3).Index([]int{3, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRelaxTiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cases := []GridSpec{
		{Dim: 1, Size: 32, Tile: 8, Iters: 5},
		{Dim: 2, Size: 16, Tile: 4, Iters: 3},
		{Dim: 2, Size: 17, Tile: 5, Iters: 3}, // ragged tiles
		{Dim: 3, Size: 8, Tile: 4, Iters: 2},
		{Dim: 3, Size: 9, Tile: 4, Iters: 2},
		{Dim: 4, Size: 5, Tile: 3, Iters: 2},
	}
	for _, spec := range cases {
		g := NewGridRandom(spec.Dim, spec.Size, rng)
		want := RelaxReference(g, spec.Iters)
		var c opcount.Counter
		got, err := RelaxTiled(spec, g, &c)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if diff := got.MaxAbsDiff(want); diff != 0 {
			t.Errorf("%+v: tiled differs from reference by %g (must be bit-identical)", spec, diff)
		}
	}
}

func TestRelaxTiledCountsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []GridSpec{
		{Dim: 1, Size: 32, Tile: 8, Iters: 4},
		{Dim: 2, Size: 16, Tile: 4, Iters: 2},
		{Dim: 2, Size: 17, Tile: 5, Iters: 2},
		{Dim: 3, Size: 9, Tile: 4, Iters: 1},
	}
	for _, spec := range cases {
		g := NewGridRandom(spec.Dim, spec.Size, rng)
		var c opcount.Counter
		if _, err := RelaxTiled(spec, g, &c); err != nil {
			t.Fatal(err)
		}
		want, err := CountRelaxTiled(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); got != want {
			t.Errorf("%+v: run counted %+v, closed form %+v", spec, got, want)
		}
	}
}

func TestRelaxConvergesToBoundaryValue(t *testing.T) {
	// All-zero boundary, random interior: relaxation must contract the
	// interior toward zero (the harmonic solution for zero boundary).
	// The slowest Jacobi mode contracts by ≈ 0.98 per sweep on a 12-wide
	// grid, so 1200 sweeps shrink it below 1e-10.
	spec := GridSpec{Dim: 2, Size: 12, Tile: 4, Iters: 1200}
	g := NewGrid(2, 12)
	rng := rand.New(rand.NewSource(22))
	coords := make([]int, 2)
	for idx := range g.Data {
		g.Lat.Coords(idx, coords)
		if !g.Lat.OnBoundary(coords) {
			g.Data[idx] = rng.Float64()
		}
	}
	var c opcount.Counter
	out, err := RelaxTiled(spec, g, &c)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for idx, v := range out.Data {
		out.Lat.Coords(idx, coords)
		if !out.Lat.OnBoundary(coords) {
			worst = math.Max(worst, math.Abs(v))
		}
	}
	if worst > 1e-6 {
		t.Errorf("interior max after 200 iters = %g, want ≈ 0", worst)
	}
}

// TestGridRatioScalesAsRoot verifies the §3.3 claim R(M) = Θ(M^(1/d)) for
// d = 1, 2, 3: quadrupling the tile volume should scale the interior ratio
// by ≈ 4^(1/d).
func TestGridRatioScalesAsRoot(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		// size ≫ tile so interior tiles dominate (count-only, so large
		// sizes are cheap).
		size := map[int]int{1: 16384, 2: 2048, 3: 512}[d]
		t1, t2 := 4, 16
		a, err := CountRelaxTiled(GridSpec{Dim: d, Size: size, Tile: t1, Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := CountRelaxTiled(GridSpec{Dim: d, Size: size, Tile: t2, Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		gain := b.Ratio() / a.Ratio()
		// Tile side ×4 → volume ×4^d → ratio ×(4^d)^(1/d) = ×4.
		if gain < 3.5 || gain > 4.5 {
			t.Errorf("d=%d: ratio gain = %v, want ≈ 4", d, gain)
		}
	}
}

func TestGridSpecAccessors(t *testing.T) {
	s := GridSpec{Dim: 3, Size: 64, Tile: 4, Iters: 1}
	if got := s.TileVolume(); got != 64 {
		t.Errorf("TileVolume = %d, want 64", got)
	}
	// 4³ + 2·3·4² = 64 + 96 = 160.
	if got := s.Memory(); got != 160 {
		t.Errorf("Memory = %d, want 160", got)
	}
	if got := s.stencilOps(); got != 13 {
		t.Errorf("stencilOps = %d, want 13", got)
	}
}

func TestGridSpecValidation(t *testing.T) {
	bad := []GridSpec{
		{Dim: 0, Size: 8, Tile: 2, Iters: 1},
		{Dim: 2, Size: 2, Tile: 1, Iters: 1},
		{Dim: 2, Size: 8, Tile: 9, Iters: 1},
		{Dim: 2, Size: 8, Tile: 2, Iters: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	var c opcount.Counter
	g := NewGrid(2, 8)
	if _, err := RelaxTiled(GridSpec{Dim: 2, Size: 9, Tile: 3, Iters: 1}, g, &c); err == nil {
		t.Error("mismatched grid shape accepted")
	}
}

// Property: halo traffic is independent of the data and linear in the
// iteration count.
func TestGridCountsLinearInIters(t *testing.T) {
	f := func(it8 uint8) bool {
		iters := 1 + int(it8%8)
		one, err := CountRelaxTiled(GridSpec{Dim: 2, Size: 20, Tile: 5, Iters: 1})
		if err != nil {
			return false
		}
		many, err := CountRelaxTiled(GridSpec{Dim: 2, Size: 20, Tile: 5, Iters: iters})
		if err != nil {
			return false
		}
		k := uint64(iters)
		return many.Ops == k*one.Ops && many.Reads == k*one.Reads && many.Writes == k*one.Writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCountRelaxTiledMatchesTileWalk: the per-dimension factoring equals
// the per-tile walk it replaced (kept below) with ==, over dims 1–4, ragged
// tiles, tile 1 and tile N, and counts that wrap uint64.
func TestCountRelaxTiledMatchesTileWalk(t *testing.T) {
	var specs []GridSpec
	for dim := 1; dim <= 4; dim++ {
		for _, size := range []int{3, 4, 7, 16, 23} {
			for _, tile := range []int{1, 2, 3, 5, size - 1, size} {
				if tile >= 1 && tile <= size {
					specs = append(specs, GridSpec{Dim: dim, Size: size, Tile: tile, Iters: 1 + dim%3})
				}
			}
		}
	}
	specs = append(specs,
		GridSpec{Dim: 1, Size: 1000, Tile: 7, Iters: 5},
		GridSpec{Dim: 2, Size: 1024, Tile: 33, Iters: 2},
		GridSpec{Dim: 3, Size: 100, Tile: 9, Iters: 3},
		// Wraps: 1000^4 points × 17 flops × 2^50 iterations.
		GridSpec{Dim: 4, Size: 1000, Tile: 300, Iters: 1 << 50},
		GridSpec{Dim: 3, Size: 1 << 22, Tile: 1 << 20, Iters: 1 << 40},
	)
	for _, spec := range specs {
		got, err := CountRelaxTiled(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := countRelaxTiledWalk(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v: factored %+v, tile walk %+v", spec, got, want)
		}
	}
}

// countRelaxTiledWalk is the per-tile walk CountRelaxTiled replaced, kept
// verbatim as the reference for TestCountRelaxTiledMatchesTileWalk.
func countRelaxTiledWalk(spec GridSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	d := spec.Dim
	tileLo := make([]int, d)
	var t opcount.Totals
	var perIter opcount.Totals
	forEachTile(spec, tileLo, func() {
		for k := 0; k < d; k++ {
			area := uint64(tileFaceArea(spec, tileLo, k))
			if tileLo[k] > 0 {
				perIter.Reads += area
				perIter.Writes += area
			}
			if tileLo[k]+tileExtent(spec, tileLo[k]) < spec.Size {
				perIter.Reads += area
				perIter.Writes += area
			}
		}
		// Updatable points: tile points that are interior to the grid.
		interior := uint64(1)
		for k := 0; k < d; k++ {
			lo, ext := tileLo[k], tileExtent(spec, tileLo[k])
			hi := lo + ext
			ilo, ihi := lo, hi
			if ilo == 0 {
				ilo = 1
			}
			if ihi == spec.Size {
				ihi = spec.Size - 1
			}
			if ihi <= ilo {
				interior = 0
				break
			}
			interior *= uint64(ihi - ilo)
		}
		perIter.Ops += interior * uint64(spec.stencilOps())
	})
	t.Ops = perIter.Ops * uint64(spec.Iters)
	t.Reads = perIter.Reads * uint64(spec.Iters)
	t.Writes = perIter.Writes * uint64(spec.Iters)
	return t, nil
}
