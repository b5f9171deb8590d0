package model

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// threeLevel is a plausible register→cache→DRAM-ish machine used across the
// tests: 1 GOPS compute, 4 Gwords/s into a 1K inner store, 1 Gword/s into a
// 256K middle level, 50 Mwords/s into a 64M outer level.
func threeLevel() Hierarchy {
	return Hierarchy{C: 1e9, Levels: []Level{
		{Name: "sram", BW: 4e9, M: 1024},
		{Name: "dram", BW: 1e9, M: 256 * 1024},
		{Name: "disk", BW: 50e6, M: 64 << 20},
	}}
}

func TestHierarchyValidate(t *testing.T) {
	if err := threeLevel().Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	cases := map[string]Hierarchy{
		"no levels":    {C: 1e9},
		"zero C":       {C: 0, Levels: []Level{{BW: 1, M: 1}}},
		"inf C":        {C: math.Inf(1), Levels: []Level{{BW: 1, M: 1}}},
		"zero BW":      {C: 1, Levels: []Level{{BW: 0, M: 1}}},
		"negative M":   {C: 1, Levels: []Level{{BW: 1, M: -4}}},
		"NaN capacity": {C: 1, Levels: []Level{{BW: 1, M: math.NaN()}}},
	}
	for name, h := range cases {
		if err := h.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHierarchyValidateNonMonotone(t *testing.T) {
	h := threeLevel()
	h.Levels[2].BW = 2e9 // disk channel faster than dram: mis-ordered
	err := h.Validate()
	if !errors.Is(err, ErrNonMonotoneHierarchy) {
		t.Fatalf("err = %v, want ErrNonMonotoneHierarchy", err)
	}
	// Equal bandwidths across adjacent boundaries are allowed.
	h.Levels[2].BW = h.Levels[1].BW
	if err := h.Validate(); err != nil {
		t.Fatalf("equal adjacent bandwidths rejected: %v", err)
	}
}

func TestHierarchyAccessors(t *testing.T) {
	h := threeLevel()
	if got := h.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	if got := h.CapacityWithin(2); got != 1024+256*1024 {
		t.Errorf("CapacityWithin(2) = %v", got)
	}
	if got := h.TotalCapacity(); got != 1024+256*1024+float64(64<<20) {
		t.Errorf("TotalCapacity = %v", got)
	}
	if got := h.BoundaryIntensity(3); got != 1e9/50e6 {
		t.Errorf("BoundaryIntensity(3) = %v, want 20", got)
	}
	if s := h.String(); !strings.Contains(s, "C=1G ops/s") {
		t.Errorf("String = %q", s)
	}
	pe := PE{C: 10e6, IO: 20e6, M: 65536}
	if flat, ok := FromPE(pe).Flat(); !ok || flat != pe {
		t.Errorf("FromPE→Flat = %+v, %v", flat, ok)
	}
	if _, ok := threeLevel().Flat(); ok {
		t.Error("three-level hierarchy claimed to be flat")
	}
}

// TestAnalyzeHierarchyPerBoundary checks the headline capability: a machine
// that is balanced at one boundary and I/O bound at another, with the
// binding boundary picking the overall verdict.
func TestAnalyzeHierarchyPerBoundary(t *testing.T) {
	// Matrix multiplication, R(M) = √M. Build the boundary states directly:
	// boundary 1: W=1024, R=32, intensity C/BW=0.25 → compute bound.
	// boundary 2: W≈257K, R≈507, intensity 1 → compute bound.
	// boundary 3: W≈64M, R≈8207, intensity 20 → compute bound. Make the
	// disk channel slow enough to bind: intensity must exceed R.
	h := threeLevel()
	h.Levels[2].BW = 100e3 // intensity 10000 > R(total)≈8207: disk I/O bound
	a, err := AnalyzeHierarchy(h, MatrixMultiplication(), 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Boundaries) != 3 {
		t.Fatalf("got %d boundaries", len(a.Boundaries))
	}
	wantStates := []BalanceState{ComputeBound, ComputeBound, IOBound}
	for i, b := range a.Boundaries {
		if b.State != wantStates[i] {
			t.Errorf("boundary %d: state %v, want %v", b.Boundary, b.State, wantStates[i])
		}
	}
	if a.Binding != 3 || a.State != IOBound {
		t.Errorf("binding = %d state %v, want boundary 3 I/O bound", a.Binding, a.State)
	}
	// The binding boundary's balanced capacity is the flat answer for the
	// equivalent PE (intensity 10⁴ → M = 10⁸ for √M).
	bb := a.BindingBoundary()
	if !bb.Rebalanceable || math.Abs(bb.BalancedMemory-1e8)/1e8 > 1e-6 {
		t.Errorf("binding BalancedMemory = %v, want 1e8", bb.BalancedMemory)
	}
}

// TestAnalyzeHierarchyOneLevelMatchesFlat pins the exact special case on a
// hand-picked PE (the property test quantifies over the catalog).
func TestAnalyzeHierarchyOneLevelMatchesFlat(t *testing.T) {
	pe := PE{C: 50e6, IO: 1e6, M: 4096}
	for _, comp := range Catalog() {
		want, err := referenceAnalyze(pe, comp, 1e18)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := AnalyzeHierarchy(FromPE(pe), comp, 1e18)
		if err != nil {
			t.Fatal(err)
		}
		if ha.Binding != 1 || ha.State != want.State || !sameDiagnosis(ha.Boundaries[0], want) {
			t.Errorf("%s: one-level %+v != reference %+v", comp.Name, ha.Boundaries[0], want)
		}
	}
}

func TestAnalyzeHierarchyRejectsInvalid(t *testing.T) {
	if _, err := AnalyzeHierarchy(Hierarchy{}, FFT(), 1e18); err == nil {
		t.Error("empty hierarchy accepted")
	}
	h := threeLevel()
	h.Levels[0].BW = 1 // inner slower than outer: non-monotone
	if _, err := AnalyzeHierarchy(h, FFT(), 1e18); !errors.Is(err, ErrNonMonotoneHierarchy) {
		t.Errorf("err = %v, want ErrNonMonotoneHierarchy", err)
	}
}

// TestRebalanceHierarchyBill checks the per-level bill on a concrete case
// where only the outer boundary needs new capacity.
func TestRebalanceHierarchyBill(t *testing.T) {
	// Sorting, R(M) = log₂M. Boundary intensities ×α must be reachable.
	h := Hierarchy{C: 8e6, Levels: []Level{
		{Name: "ram", BW: 1e6, M: 1 << 10},
		{Name: "disk", BW: 500e3, M: 1 << 20},
	}}
	// Intensities: 8 and 16. α=1.5 → 12 and 24. Required cumulative:
	// 2^12 and 2^24.
	r, err := RebalanceHierarchy(h, Sorting(), 1.5, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rebalanceable || r.Binding != 2 {
		t.Fatalf("rebalanceable=%v binding=%d, want true/2", r.Rebalanceable, r.Binding)
	}
	if got := r.Boundaries[0].RequiredWithin; math.Abs(got-4096)/4096 > 1e-6 {
		t.Errorf("boundary 1 requires %v, want 4096", got)
	}
	if got := r.Boundaries[1].RequiredWithin; math.Abs(got-float64(1<<24))/float64(1<<24) > 1e-6 {
		t.Errorf("boundary 2 requires %v, want 2^24", got)
	}
	// Level 1 must grow to 4096; level 2 covers the rest of 2^24.
	if b := r.Bill[0]; math.Abs(b.MNew-4096)/4096 > 1e-6 || b.Delta != b.MNew-1024 {
		t.Errorf("level 1 bill %+v, want MNew 4096", b)
	}
	if b := r.Bill[1]; math.Abs(b.MNew-(float64(1<<24)-4096))/float64(1<<24) > 1e-6 {
		t.Errorf("level 2 bill %+v, want MNew 2^24−4096", b)
	}
	if math.Abs(r.TotalMemory-float64(1<<24))/float64(1<<24) > 1e-6 {
		t.Errorf("TotalMemory = %v, want 2^24", r.TotalMemory)
	}
	// Re-analyzing at the billed capacities with the faster compute unit
	// must report no boundary I/O bound.
	h2 := Hierarchy{C: 1.5 * h.C, Levels: []Level{
		{Name: "ram", BW: 1e6, M: r.Bill[0].MNew},
		{Name: "disk", BW: 500e3, M: r.Bill[1].MNew},
	}}
	a, err := AnalyzeHierarchy(h2, Sorting(), 1e18)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range a.Boundaries {
		if b.State == IOBound {
			t.Errorf("boundary %d still I/O bound after paying the bill", b.Boundary)
		}
	}
}

// TestRebalanceHierarchyNoShrink: a level already larger than its boundary
// requires keeps its capacity — the bill never shrinks a memory.
func TestRebalanceHierarchyNoShrink(t *testing.T) {
	h := Hierarchy{C: 4e6, Levels: []Level{
		{BW: 1e6, M: 1 << 20}, // vastly over-provisioned for intensity 4
		{BW: 500e3, M: 1 << 10},
	}}
	r, err := RebalanceHierarchy(h, Sorting(), 1.25, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bill[0].MNew != float64(1<<20) || r.Bill[0].Delta != 0 {
		t.Errorf("over-provisioned level was resized: %+v", r.Bill[0])
	}
	// The inner level's 2^20 words already exceed boundary 2's 2^10
	// requirement, so the outer level only keeps what it has.
	if r.Bill[1].MNew != float64(1<<10) || r.Bill[1].Delta != 0 {
		t.Errorf("outer level billed %+v, want unchanged", r.Bill[1])
	}
	if r.TotalDelta != 0 {
		t.Errorf("TotalDelta = %v, want 0", r.TotalDelta)
	}
}

func TestRebalanceHierarchyIOBounded(t *testing.T) {
	r, err := RebalanceHierarchy(threeLevel(), MatrixVector(), 2, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rebalanceable || r.Bill != nil || r.TotalMemory != 0 {
		t.Errorf("Θ(1) computation rebalanced: %+v", r)
	}
}

func TestRebalanceHierarchyRejectsBadAlpha(t *testing.T) {
	if _, err := RebalanceHierarchy(threeLevel(), FFT(), 0.5, 1e18); err == nil {
		t.Error("α<1 accepted")
	}
	h := threeLevel()
	h.C = -1
	if _, err := RebalanceHierarchy(h, FFT(), 2, 1e18); err == nil {
		t.Error("invalid hierarchy accepted")
	}
}
