package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"balarch/internal/opcount"
)

func TestBlockedLUReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, block int }{
		{4, 2}, {8, 4}, {16, 4}, {12, 5}, {17, 4}, {9, 9}, {1, 1},
	} {
		a := DiagonallyDominant(tc.n, rng)
		var c opcount.Counter
		packed, err := BlockedLU(LUSpec{N: tc.n, Block: tc.block}, a, &c)
		if err != nil {
			t.Fatalf("n=%d block=%d: %v", tc.n, tc.block, err)
		}
		recon := ReconstructLU(packed)
		if diff := recon.MaxAbsDiff(a); diff > 1e-9*float64(tc.n) {
			t.Errorf("n=%d block=%d: ‖LU - A‖ = %g", tc.n, tc.block, diff)
		}
	}
}

func TestBlockedLUMatchesUnblocked(t *testing.T) {
	// The packed factors must be independent of the block size (same
	// algorithm, different schedule).
	rng := rand.New(rand.NewSource(11))
	n := 16
	a := DiagonallyDominant(n, rng)
	var c opcount.Counter
	ref, err := BlockedLU(LUSpec{N: n, Block: n}, a, &c)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 2, 4, 8, 5, 7} {
		var c2 opcount.Counter
		got, err := BlockedLU(LUSpec{N: n, Block: bs}, a, &c2)
		if err != nil {
			t.Fatalf("block=%d: %v", bs, err)
		}
		if diff := got.MaxAbsDiff(ref); diff > 1e-9 {
			t.Errorf("block=%d: factors differ from unblocked by %g", bs, diff)
		}
	}
}

func TestBlockedLUCountsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ n, block int }{
		{8, 2}, {16, 4}, {12, 5}, {17, 4}, {10, 10},
	} {
		spec := LUSpec{N: tc.n, Block: tc.block}
		a := DiagonallyDominant(tc.n, rng)
		var c opcount.Counter
		if _, err := BlockedLU(spec, a, &c); err != nil {
			t.Fatal(err)
		}
		want, err := CountBlockedLU(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); got != want {
			t.Errorf("n=%d block=%d: run counted %+v, closed form %+v", tc.n, tc.block, got, want)
		}
	}
}

func TestLUZeroPivotDetected(t *testing.T) {
	a := NewDense(2, 2) // all zeros
	var c opcount.Counter
	if _, err := BlockedLU(LUSpec{N: 2, Block: 2}, a, &c); err == nil {
		t.Error("zero pivot not detected")
	}
}

// TestLUFlopsMatchTheory: total flops ≈ (2/3)N³ for N ≫ b.
func TestLUFlopsMatchTheory(t *testing.T) {
	n := 256
	tot, err := CountBlockedLU(LUSpec{N: n, Block: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 3.0 * math.Pow(float64(n), 3)
	if rel := math.Abs(float64(tot.Ops)-want) / want; rel > 0.10 {
		t.Errorf("flops = %d, want ≈ %.0f (got %.1f%% off)", tot.Ops, want, rel*100)
	}
}

// TestLURatioGrowsWithBlock verifies the §3.2 claim: the per-run ratio grows
// linearly in b = √M.
func TestLURatioGrowsWithBlock(t *testing.T) {
	n := 1024
	r8, err := CountBlockedLU(LUSpec{N: n, Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := CountBlockedLU(LUSpec{N: n, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	gain := r32.Ratio() / r8.Ratio()
	// 4× block → 16× memory → ratio should grow ≈4× (√16).
	if gain < 3.2 || gain > 4.8 {
		t.Errorf("ratio gain for 4× block = %v, want ≈ 4", gain)
	}
}

func TestLUSpecValidation(t *testing.T) {
	bad := []LUSpec{{N: 0, Block: 1}, {N: 4, Block: 0}, {N: 4, Block: 8}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if got := (LUSpec{N: 100, Block: 10}).Memory(); got != 300 {
		t.Errorf("Memory = %d, want 300", got)
	}
	if got := (LUSpec{N: 100, Block: 10}).Steps(); got != 10 {
		t.Errorf("Steps = %d, want 10", got)
	}
}

// Property: LU reconstruction holds for random diagonally dominant systems.
func TestBlockedLUProperty(t *testing.T) {
	f := func(seed int64, n8, b8 uint8) bool {
		n := 2 + int(n8%14)
		bs := 1 + int(b8)%n
		rng := rand.New(rand.NewSource(seed))
		a := DiagonallyDominant(n, rng)
		var c opcount.Counter
		packed, err := BlockedLU(LUSpec{N: n, Block: bs}, a, &c)
		if err != nil {
			return false
		}
		return ReconstructLU(packed).MaxAbsDiff(a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCountBlockedLUMatchesTileWalk: the O(N) count equals the tile walk
// it replaced, kept below, with == on every field: every N ≤ 70 at every
// block, step by step against luStep and in sum against CountBlockedLU,
// plus sizes whose totals wrap uint64.
func TestCountBlockedLUMatchesTileWalk(t *testing.T) {
	var specs []LUSpec
	for n := 1; n <= 70; n++ {
		for bs := 1; bs <= n; bs++ {
			specs = append(specs, LUSpec{N: n, Block: bs})
		}
	}
	specs = append(specs,
		LUSpec{N: 1000, Block: 37},
		LUSpec{N: 1 << 22, Block: 1 << 20},     // 2·r·rest² wraps at the first step
		LUSpec{N: 5_000_001, Block: 2_000_000}, // ragged, wraps
	)
	for _, spec := range specs {
		got, err := CountBlockedLU(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, steps, err := walkBlockedLU(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v: count %+v, walk %+v", spec, got, want)
		}
		if len(steps) != spec.Steps() {
			t.Fatalf("%+v: walk took %d steps, want %d", spec, len(steps), spec.Steps())
		}
		for i, w := range steps {
			if st := luStep(spec.N, spec.Block, i*spec.Block); st != w {
				t.Fatalf("%+v step %d: luStep %+v, walk %+v", spec, i, st, w)
			}
		}
	}
}

// TestLUSameRatioAllSteps is the §3.2 sentence as a test: "The same ratio is
// maintained for all the steps" — the per-step Ccomp/Cio stays near-constant
// until the trailing matrix shrinks to a few tiles.
func TestLUSameRatioAllSteps(t *testing.T) {
	spec := LUSpec{N: 1024, Block: 16}
	// Examine the first 3/4 of the steps (the paper's regime N' ≫ b).
	upto := spec.Steps() * 3 / 4
	first := luStep(spec.N, spec.Block, 0).Ratio()
	for i := 1; i < upto; i++ {
		r := luStep(spec.N, spec.Block, i*spec.Block).Ratio()
		if math.Abs(r-first)/first > 0.10 {
			t.Errorf("step %d ratio %v drifted more than 10%% from step 0's %v", i, r, first)
		}
	}
	// And the ratio is ≈ 2b/3 (trailing update dominates: 2·b flops per
	// 3 words of tile traffic).
	want := 2.0 * float64(spec.Block) / 3.0
	if math.Abs(first-want)/want > 0.15 {
		t.Errorf("step-0 ratio %v far from 2b/3 = %v", first, want)
	}
}

// walkBlockedLU counts BlockedLU tile by tile in O(N²), independently of
// luStep's closed forms, as the reference for
// TestCountBlockedLUMatchesTileWalk. It returns the whole-run totals and the
// totals of each panel step.
func walkBlockedLU(spec LUSpec) (opcount.Totals, []opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, nil, err
	}
	n, bs := spec.N, spec.Block
	var whole opcount.Totals
	var steps []opcount.Totals
	for s0 := 0; s0 < n; s0 += bs {
		r := uint64(min(bs, n-s0))
		var t opcount.Totals

		// Diagonal tile: flops = Σ_{m=1}^{r-1} m + 2m² .
		t.Reads += r * r
		var diagOps uint64
		for m := uint64(1); m < r; m++ {
			diagOps += m + 2*m*m
		}
		t.Ops += diagOps
		t.Writes += r * r

		// Per-row triangular solve against U_ss: Σ_{k=0}^{r-1} (2k+1) = r².
		// Per-column unit-lower solve: Σ_{k=0}^{r-1} 2k = r(r-1).
		for i0 := s0 + int(r); i0 < n; i0 += bs {
			ri := uint64(min(bs, n-i0))
			t.Reads += ri * r
			t.Ops += ri * r * r
			t.Writes += ri * r
		}
		for j0 := s0 + int(r); j0 < n; j0 += bs {
			cj := uint64(min(bs, n-j0))
			t.Reads += r * cj
			t.Ops += cj * r * (r - 1)
			t.Writes += r * cj
		}
		for i0 := s0 + int(r); i0 < n; i0 += bs {
			ri := uint64(min(bs, n-i0))
			t.Reads += ri * r
			for j0 := s0 + int(r); j0 < n; j0 += bs {
				cj := uint64(min(bs, n-j0))
				t.Reads += r*cj + ri*cj
				t.Ops += 2 * ri * r * cj
				t.Writes += ri * cj
			}
		}
		steps = append(steps, t)
		whole.Ops += t.Ops
		whole.Reads += t.Reads
		whole.Writes += t.Writes
	}
	return whole, steps, nil
}
