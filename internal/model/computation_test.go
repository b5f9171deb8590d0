package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

const maxSearchM = 1e18

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d entries, want 8", len(cat))
	}
	seen := map[string]bool{}
	for _, c := range cat {
		if c.Name == "" || c.Section == "" || c.Law == nil || c.Ratio == nil {
			t.Errorf("incomplete catalog entry: %+v", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate catalog entry %q", c.Name)
		}
		seen[c.Name] = true
		if c.MinMemory <= 0 {
			t.Errorf("%s: MinMemory = %v", c.Name, c.MinMemory)
		}
	}
}

// TestNumericMatchesClosedForm verifies the central consistency property of
// the model: inverting the ratio function numerically (Rebalance) reproduces
// the paper's closed-form growth law (RebalanceClosedForm) for every
// computation-bounded entry.
func TestNumericMatchesClosedForm(t *testing.T) {
	cases := []struct {
		comp  Computation
		mOld  float64
		alpha float64
	}{
		{MatrixMultiplication(), 1024, 2},
		{MatrixMultiplication(), 1024, 4},
		{MatrixMultiplication(), 4096, 8},
		{MatrixTriangularization(), 256, 3},
		{Grid(1), 81, 2},
		{Grid(2), 1024, 2},
		{Grid(3), 4096, 2},
		{Grid(4), 65536, 2},
		{FFT(), 64, 2},
		{FFT(), 256, 1.5},
		{Sorting(), 64, 2},
		{Sorting(), 1024, 1.25},
	}
	for _, tc := range cases {
		want, err := tc.comp.RebalanceClosedForm(tc.alpha, tc.mOld)
		if err != nil {
			t.Fatalf("%s closed form: %v", tc.comp.Name, err)
		}
		got, err := tc.comp.Rebalance(tc.alpha, tc.mOld, maxSearchM)
		if err != nil {
			t.Fatalf("%s numeric: %v", tc.comp.Name, err)
		}
		if relErr(got, want) > 1e-6 {
			t.Errorf("%s α=%v mOld=%v: numeric %v vs closed form %v",
				tc.comp.Name, tc.alpha, tc.mOld, got, want)
		}
	}
}

func TestIOBoundedNotRebalanceable(t *testing.T) {
	for _, c := range []Computation{MatrixVector(), TriangularSolve()} {
		if !c.IOBounded {
			t.Errorf("%s should be flagged IOBounded", c.Name)
		}
		if _, err := c.Rebalance(2, 1024, maxSearchM); !errors.Is(err, ErrNotRebalanceable) {
			t.Errorf("%s: numeric rebalance err = %v, want ErrNotRebalanceable", c.Name, err)
		}
		if _, err := c.RebalanceClosedForm(2, 1024); !errors.Is(err, ErrNotRebalanceable) {
			t.Errorf("%s: closed-form rebalance err = %v, want ErrNotRebalanceable", c.Name, err)
		}
		// α = 1 leaves the PE balanced as-is.
		if m, err := c.Rebalance(1, 1024, maxSearchM); err != nil || m > 1024 {
			t.Errorf("%s: α=1 gave (%v, %v)", c.Name, m, err)
		}
	}
}

func TestRequiredMemoryMatmul(t *testing.T) {
	mm := MatrixMultiplication()
	// Intensity 32 needs M = 32² = 1024.
	m, err := mm.RequiredMemory(32, maxSearchM)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(m, 1024) > 1e-6 {
		t.Errorf("RequiredMemory(32) = %v, want 1024", m)
	}
	// Intensity below the ratio at MinMemory is satisfied at MinMemory.
	m, err = mm.RequiredMemory(0.5, maxSearchM)
	if err != nil {
		t.Fatal(err)
	}
	if m != mm.MinMemory {
		t.Errorf("tiny intensity: RequiredMemory = %v, want MinMemory %v", m, mm.MinMemory)
	}
}

func TestRequiredMemoryCapsAtMax(t *testing.T) {
	mm := MatrixMultiplication()
	if _, err := mm.RequiredMemory(1e12, 1e6); !errors.Is(err, ErrNotRebalanceable) {
		t.Errorf("unreachable intensity: err = %v, want ErrNotRebalanceable", err)
	}
	if _, err := mm.RequiredMemory(-1, 1e6); err == nil {
		t.Error("negative intensity accepted")
	}
}

// TestRequiredMemoryRejectsBadCap: a cap that is not positive and finite is
// an argument error, not ErrNotRebalanceable — otherwise the bisection
// walks toward a negative "memory" and reports it as the answer.
func TestRequiredMemoryRejectsBadCap(t *testing.T) {
	mm := MatrixMultiplication()
	for _, maxM := range []float64{-5, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		m, err := mm.RequiredMemory(64, maxM)
		if err == nil || errors.Is(err, ErrNotRebalanceable) {
			t.Errorf("maxM=%v: RequiredMemory = %v, %v; want an argument error", maxM, m, err)
		}
		if _, err := mm.Rebalance(2, 4096, maxM); err == nil || errors.Is(err, ErrNotRebalanceable) {
			t.Errorf("maxM=%v: Rebalance err = %v; want an argument error", maxM, err)
		}
		if _, err := Analyze(PE{C: 64e6, IO: 1e6, M: 1024}, mm, maxM); err == nil {
			t.Errorf("maxM=%v: Analyze accepted the cap", maxM)
		}
		if _, err := AnalyzeHierarchy(FromPE(PE{C: 64e6, IO: 1e6, M: 1024}), mm, maxM); err == nil {
			t.Errorf("maxM=%v: AnalyzeHierarchy accepted the cap", maxM)
		}
	}
}

func TestAnalyzeWarpMatmul(t *testing.T) {
	// Warp per cell: C/IO = 0.5; matmul with 64K words achieves √M = 256.
	// The cell is massively compute bound for matmul — its I/O channel
	// could feed a far faster multiplier (paper §5 makes this point:
	// Warp's large IO and memory reflect the paper's results).
	a, err := Analyze(Warp(), MatrixMultiplication(), maxSearchM)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != ComputeBound {
		t.Errorf("Warp matmul state = %v, want compute bound", a.State)
	}
	if !a.Rebalanceable {
		t.Error("Warp matmul should be rebalanceable")
	}
	// Balance needs only √M = 0.5 → MinMemory suffices.
	if a.BalancedMemory != MatrixMultiplication().MinMemory {
		t.Errorf("BalancedMemory = %v, want MinMemory", a.BalancedMemory)
	}
}

func TestAnalyzeIOBoundPE(t *testing.T) {
	// A PE with intensity 100 running matvec can never balance.
	pe := PE{C: 1e9, IO: 1e7, M: 1 << 20}
	a, err := Analyze(pe, MatrixVector(), maxSearchM)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != IOBound {
		t.Errorf("state = %v, want I/O bound", a.State)
	}
	if a.Rebalanceable {
		t.Error("matvec at intensity 100 must not be rebalanceable")
	}
}

func TestAnalyzeBalancedExactly(t *testing.T) {
	// Construct a PE whose intensity equals √M exactly.
	pe := PE{C: 32e6, IO: 1e6, M: 1024}
	a, err := Analyze(pe, MatrixMultiplication(), maxSearchM)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != Balanced {
		t.Errorf("state = %v, want balanced (intensity=%v ratio=%v)",
			a.State, a.Intensity, a.AchievableRatio)
	}
}

func TestAnalyzeRejectsInvalidPE(t *testing.T) {
	if _, err := Analyze(PE{}, MatrixMultiplication(), maxSearchM); err == nil {
		t.Error("invalid PE accepted")
	}
}

func TestGridPanicsOnBadDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grid(0) did not panic")
		}
	}()
	Grid(0)
}

func TestComputationString(t *testing.T) {
	s := MatrixMultiplication().String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// Property: for every computation-bounded catalog entry, the numeric
// rebalance solver agrees with the closed-form law across random α and M_old.
func TestRebalanceAgreementProperty(t *testing.T) {
	comps := []Computation{
		MatrixMultiplication(), MatrixTriangularization(),
		Grid(2), Grid(3), FFT(), Sorting(),
	}
	f := func(ci uint8, a16, m16 uint16) bool {
		c := comps[int(ci)%len(comps)]
		alpha := 1 + float64(a16%300)/100 // [1, 4)
		mOld := 16 + float64(m16%4096)    // [16, 4112)
		want, err := c.RebalanceClosedForm(alpha, mOld)
		if err != nil {
			return false
		}
		if want > maxSearchM/4 {
			return true // exponential law can overflow the search cap; skip
		}
		got, err := c.Rebalance(alpha, mOld, maxSearchM)
		if err != nil {
			return false
		}
		return relErr(got, want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RequiredMemory is monotone in the intensity target.
func TestRequiredMemoryMonotoneProperty(t *testing.T) {
	comps := []Computation{MatrixMultiplication(), Grid(3), FFT(), Sorting()}
	f := func(ci uint8, x16 uint16) bool {
		c := comps[int(ci)%len(comps)]
		x := 1 + float64(x16%1000)/10 // [1, 101)
		m1, err1 := c.RequiredMemory(x, maxSearchM)
		m2, err2 := c.RequiredMemory(x*1.5, maxSearchM)
		if errors.Is(err1, ErrNotRebalanceable) || errors.Is(err2, ErrNotRebalanceable) {
			// Log-shaped ratios need memory beyond the search cap for
			// large intensities; unreachable targets are not a
			// monotonicity violation.
			return true
		}
		if err1 != nil || err2 != nil {
			return false
		}
		return m2 >= m1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConvolutionExtension(t *testing.T) {
	c := Convolution(16)
	if !c.IOBounded {
		t.Error("convolution should be memory-inelastic (IOBounded)")
	}
	// Above the operator footprint the ratio is pinned at k.
	if got := c.Ratio(64); got != 16 {
		t.Errorf("ratio at ample memory = %v, want 16", got)
	}
	if got := c.Ratio(1 << 20); got != 16 {
		t.Errorf("ratio at huge memory = %v, want 16", got)
	}
	// Below it, the delay line cannot be held.
	if got := c.Ratio(8); got >= 16 {
		t.Errorf("ratio below footprint = %v, want < 16", got)
	}
	// Memory cannot rebalance it.
	if _, err := c.Rebalance(2, 64, 1e18); !errors.Is(err, ErrNotRebalanceable) {
		t.Errorf("rebalance err = %v, want ErrNotRebalanceable", err)
	}
	// But a wider operator can: Convolution(32) balances intensity 32.
	wide := Convolution(32)
	m, err := wide.RequiredMemory(32, 1e18)
	if err != nil {
		t.Fatalf("wide operator: %v", err)
	}
	if m != 64 {
		t.Errorf("wide operator needs M = %v, want 64 (= 2k)", m)
	}
}

func TestConvolutionPanicsOnBadTaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Convolution(0) did not panic")
		}
	}()
	Convolution(0)
}
