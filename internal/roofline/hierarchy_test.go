package roofline

import (
	"math"
	"strings"
	"testing"

	"balarch/internal/model"
)

// testHierarchy: 1 GOPS over a fast small level and a slow big one.
func testHierarchy() model.Hierarchy {
	return model.Hierarchy{C: 1e9, Levels: []model.Level{
		{Name: "cache", BW: 500e6, M: 4096},
		{Name: "dram", BW: 10e6, M: 1 << 24},
	}}
}

func TestNewHierarchyValidates(t *testing.T) {
	if _, err := NewHierarchy(model.Hierarchy{}); err == nil {
		t.Error("invalid hierarchy accepted")
	}
	if _, err := NewHierarchy(testHierarchy()); err != nil {
		t.Fatal(err)
	}
}

func TestRidges(t *testing.T) {
	m, _ := NewHierarchy(testHierarchy())
	r := m.Ridges()
	if len(r) != 2 {
		t.Fatalf("got %d ridges", len(r))
	}
	if r[0].Intensity != 2 || r[1].Intensity != 100 {
		t.Errorf("ridge intensities %v/%v, want 2/100", r[0].Intensity, r[1].Intensity)
	}
	if r[0].Boundary != 1 || r[1].Bandwidth != 10e6 {
		t.Errorf("ridges mislabeled: %+v", r)
	}
}

// TestPointBindingBoundary: matmul on the test hierarchy — the inner
// boundary over-delivers (500e6·64 ≫ C) while the outer one binds
// (10e6·√(4096+2^24) ≈ 4.1e10 ≫ C too) — so the machine is on the roof;
// shrink the outer channel and the outer boundary binds.
func TestPointBindingBoundary(t *testing.T) {
	m, _ := NewHierarchy(testHierarchy())
	p := m.Point(model.MatrixMultiplication())
	if !p.ComputeBound || p.Binding != 0 || p.Attainable != 1e9 {
		t.Errorf("point = %+v, want compute bound on the roof", p)
	}

	h := testHierarchy()
	h.Levels[1].BW = 100e3 // ceiling ≈ 100e3·4097 ≈ 4.1e8 < C
	m2, _ := NewHierarchy(h)
	p2 := m2.Point(model.MatrixMultiplication())
	if p2.ComputeBound || p2.Binding != 2 {
		t.Errorf("point = %+v, want bound at boundary 2", p2)
	}
	wantR := math.Sqrt(4096 + float64(1<<24))
	if math.Abs(p2.Intensity-wantR)/wantR > 1e-12 ||
		math.Abs(p2.Attainable-100e3*wantR)/(100e3*wantR) > 1e-12 {
		t.Errorf("point = %+v, want intensity %v attainable %v", p2, wantR, 100e3*wantR)
	}
}

// referencePathPoint is the single-ridge roofline arithmetic written out on
// its own, as Model.PathPoint computed it before the flat PE became the
// one-level hierarchy: intensity R(M), attainable min(C, IO·R(M)) (zero
// for a negative intensity), compute bound when IO·R(M) ≥ C. It shares no
// code with evaluate, so the equivalence test below checks the one
// evaluation path against an independent statement of the roofline.
func referencePathPoint(pe model.PE, c model.Computation, memory float64) Point {
	i := c.Ratio(memory)
	attainable := 0.0
	if i >= 0 {
		attainable = math.Min(pe.C, pe.IO*i)
	}
	return Point{Memory: memory, Intensity: i, Attainable: attainable, ComputeBound: pe.IO*i >= pe.C}
}

// samePoint compares two roofline points bit for bit.
func samePoint(a, b Point) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Memory, b.Memory) && same(a.Intensity, b.Intensity) &&
		same(a.Attainable, b.Attainable) && a.ComputeBound == b.ComputeBound
}

// TestOneLevelMatchesFlatModel: across the catalog and a memory sweep
// spanning both sides of every ridge, the flat Model, the one-level
// hierarchy's Point, and its level-1 PathPoint all agree bit for bit with
// the reference single-ridge arithmetic.
func TestOneLevelMatchesFlatModel(t *testing.T) {
	comps := append(model.Catalog(), model.Grid(4), model.SparseMatVec(), model.Convolution(16))
	for _, pe := range []model.PE{{C: 50e6, IO: 1e6, M: 4096}, {C: 1e9, IO: 1e3, M: 3}, {C: 2, IO: 1, M: 1}} {
		flat, err := New(pe)
		if err != nil {
			t.Fatal(err)
		}
		hm, err := NewHierarchy(model.FromPE(pe))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range comps {
			for mem := 0.5; mem <= 1<<40; mem *= 3 {
				want := referencePathPoint(pe, c, mem)
				if got := flat.PathPoint(c, mem); !samePoint(got, want) {
					t.Errorf("%s M=%v: flat %+v != reference %+v", c.Name, mem, got, want)
				}
				hp := hm.PathPoint(c, 1, mem)
				got := Point{Memory: hp.Memory, Intensity: hp.Intensity, Attainable: hp.Attainable, ComputeBound: hp.ComputeBound}
				if !samePoint(got, want) {
					t.Errorf("%s M=%v: one-level path point %+v != reference %+v", c.Name, mem, hp, want)
				}
				if (hp.Binding == 0) != hp.ComputeBound || hp.Binding > 1 {
					t.Errorf("%s M=%v: binding %d with compute bound %v", c.Name, mem, hp.Binding, hp.ComputeBound)
				}
			}
			want := referencePathPoint(pe, c, pe.M)
			hp := hm.Point(c)
			if got := (Point{Memory: hp.Memory, Intensity: hp.Intensity, Attainable: hp.Attainable, ComputeBound: hp.ComputeBound}); !samePoint(got, want) {
				t.Errorf("%s: one-level point %+v != reference %+v", c.Name, hp, want)
			}
		}
	}
}

func TestPathSweepsChosenLevel(t *testing.T) {
	m, _ := NewHierarchy(testHierarchy())
	pts, err := m.Path(model.FFT(), 2, 1<<10, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for i, p := range pts {
		if want := float64(int(1<<10) * int(math.Pow(4, float64(i)))); p.Memory != want {
			t.Errorf("point %d memory %v, want %v", i, p.Memory, want)
		}
		if i > 0 && p.Attainable < pts[i-1].Attainable {
			t.Errorf("attainable fell while the level grew: %v → %v", pts[i-1].Attainable, p.Attainable)
		}
	}
	if _, err := m.Path(model.FFT(), 3, 1, 2, 2); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := m.Path(model.FFT(), 1, 16, 4, 2); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHierarchyChart(t *testing.T) {
	m, _ := NewHierarchy(testHierarchy())
	s, err := m.Chart([]model.Computation{model.MatrixMultiplication(), model.Sorting()})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"multi-ridge roofline",
		"boundary 1 roof",
		"boundary 2 roof",
		"ridge 1 at I=2",
		"ridge 2 at I=100",
		"matrix multiplication (per boundary)",
		"sorting (per boundary)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("chart missing %q:\n%s", want, s)
		}
	}
}
