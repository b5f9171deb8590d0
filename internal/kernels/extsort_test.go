package kernels

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"balarch/internal/opcount"
)

func randomKeys(n int, rng *rand.Rand) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	return keys
}

func isSorted(keys []int64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

func sameMultiset(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int64(nil), a...)
	bs := append([]int64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestHeapSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 2, 3, 10, 100, 1000} {
		keys := randomKeys(n, rng)
		orig := append([]int64(nil), keys...)
		var c opcount.Counter
		HeapSortKeys(keys, &c)
		if !isSorted(keys) {
			t.Errorf("n=%d: not sorted", n)
		}
		if !sameMultiset(keys, orig) {
			t.Errorf("n=%d: keys lost or duplicated", n)
		}
	}
}

func TestHeapSortComparisonCount(t *testing.T) {
	// Heapsort comparisons are ≈ 2n·log₂n; check within a factor 2 band.
	rng := rand.New(rand.NewSource(41))
	n := 4096
	keys := randomKeys(n, rng)
	var c opcount.Counter
	HeapSortKeys(keys, &c)
	ideal := 2 * float64(n) * math.Log2(float64(n))
	got := float64(c.Ccomp())
	if got < ideal/2 || got > ideal*2 {
		t.Errorf("comparisons = %v, want within [%.0f, %.0f]", got, ideal/2, ideal*2)
	}
}

func TestExternalSortCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []SortSpec{
		{N: 0, M: 4},
		{N: 1, M: 4},
		{N: 16, M: 4},
		{N: 100, M: 8},   // ragged last run
		{N: 1000, M: 10}, // 100 runs, fan-in 10 → two merge levels
		{N: 256, M: 16},
		{N: 500, M: 3}, // deep merge tree
	}
	for _, spec := range cases {
		input := randomKeys(spec.N, rng)
		orig := append([]int64(nil), input...)
		var c opcount.Counter
		out, err := ExternalSort(spec, input, &c)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !isSorted(out) {
			t.Errorf("%+v: output not sorted", spec)
		}
		if spec.N > 0 && !sameMultiset(out, orig) {
			t.Errorf("%+v: output not a permutation of input", spec)
		}
		if !sameMultiset(input, orig) {
			t.Errorf("%+v: input was modified", spec)
		}
	}
}

func TestExternalSortAlreadySortedAndReversed(t *testing.T) {
	n := 512
	asc := make([]int64, n)
	desc := make([]int64, n)
	for i := 0; i < n; i++ {
		asc[i] = int64(i)
		desc[i] = int64(n - i)
	}
	for _, input := range [][]int64{asc, desc} {
		var c opcount.Counter
		out, err := ExternalSort(SortSpec{N: n, M: 16}, input, &c)
		if err != nil {
			t.Fatal(err)
		}
		if !isSorted(out) {
			t.Fatal("not sorted")
		}
	}
}

func TestExternalSortDuplicateKeys(t *testing.T) {
	n := 300
	input := make([]int64, n)
	for i := range input {
		input[i] = int64(i % 7)
	}
	var c opcount.Counter
	out, err := ExternalSort(SortSpec{N: n, M: 8}, input, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !isSorted(out) || !sameMultiset(out, input) {
		t.Fatal("duplicate-heavy input mishandled")
	}
}

func TestExternalSortIOTraffic(t *testing.T) {
	// Single merge level (N = M²): every key crosses the boundary twice
	// per phase → Cio = 4N + M (the heap primes one extra read per run).
	m := 32
	n := m * m
	rng := rand.New(rand.NewSource(43))
	input := randomKeys(n, rng)
	var c opcount.Counter
	if _, err := ExternalSort(SortSpec{N: n, M: m}, input, &c); err != nil {
		t.Fatal(err)
	}
	wantIO := uint64(4 * n)
	if c.Cio() < wantIO || c.Cio() > wantIO+uint64(2*m) {
		t.Errorf("Cio = %d, want ≈ %d", c.Cio(), wantIO)
	}
}

// TestSortRatioGrowsLogarithmically verifies the §3.5 claim: doubling log₂M
// roughly doubles the comparisons-per-word ratio.
func TestSortRatioGrowsLogarithmically(t *testing.T) {
	pts, err := SortRatioSweep(context.Background(), []int{16, 256}, 44)
	if err != nil {
		t.Fatal(err)
	}
	gain := pts[1].Ratio() / pts[0].Ratio()
	// log₂256 / log₂16 = 8/4 = 2; allow a generous band for heap constants.
	if gain < 1.5 || gain > 2.6 {
		t.Errorf("ratio gain from M=16 to M=256 = %v, want ≈ 2", gain)
	}
}

func TestSortSpecValidation(t *testing.T) {
	for _, s := range []SortSpec{{N: -1, M: 4}, {N: 10, M: 1}, {N: 10, M: 0}} {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	var c opcount.Counter
	if _, err := ExternalSort(SortSpec{N: 5, M: 4}, make([]int64, 3), &c); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMergePasses(t *testing.T) {
	cases := []struct {
		spec SortSpec
		want int
	}{
		{SortSpec{N: 16, M: 4}, 1},    // 4 runs, fan-in 4
		{SortSpec{N: 64, M: 4}, 2},    // 16 runs → 4 → 1
		{SortSpec{N: 4, M: 4}, 0},     // single run
		{SortSpec{N: 1000, M: 10}, 2}, // 100 runs → 10 → 1
	}
	for _, tc := range cases {
		if got := tc.spec.MergePasses(); got != tc.want {
			t.Errorf("%+v: MergePasses = %d, want %d", tc.spec, got, tc.want)
		}
	}
}

// Property: external sort equals the standard library sort for any input.
func TestExternalSortProperty(t *testing.T) {
	f := func(seed int64, n16 uint16, m8 uint8) bool {
		n := int(n16 % 600)
		m := 2 + int(m8%30)
		rng := rand.New(rand.NewSource(seed))
		input := randomKeys(n, rng)
		want := append([]int64(nil), input...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var c opcount.Counter
		got, err := ExternalSort(SortSpec{N: n, M: m}, input, &c)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return n == 0 && got == nil
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExternalSortBothPhasesLogM is §3.5's per-phase sentence as a test:
// "Therefore for both phases, we have Ccomp/Cio = O(log₂M)" — each phase,
// counted on its own counter, individually tracks log₂M, not just the
// aggregate.
func TestExternalSortBothPhasesLogM(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	type phaseRatios struct{ p1, p2 float64 }
	byM := map[int]phaseRatios{}
	for _, m := range []int{32, 256} {
		n := m * m // one genuine M-way merge in phase 2
		input := randomKeys(n, rng)
		var c1, c2 opcount.Counter
		out, err := externalSortInternal(SortSpec{N: n, M: m}, input, &c1, &c2)
		if err != nil {
			t.Fatal(err)
		}
		p1, p2 := c1.Snapshot(), c2.Snapshot()
		if !isSorted(out) {
			t.Fatal("phased sort produced unsorted output")
		}
		byM[m] = phaseRatios{p1.Ratio(), p2.Ratio()}
		// Phase 1: heapsort ≈ 2·log₂M comparisons per 2 words moved.
		ideal := math.Log2(float64(m))
		if r := p1.Ratio(); r < ideal*0.6 || r > ideal*1.6 {
			t.Errorf("M=%d: phase-1 ratio %v far from log₂M = %v", m, r, ideal)
		}
		if r := p2.Ratio(); r < ideal*0.6 || r > ideal*1.6 {
			t.Errorf("M=%d: phase-2 ratio %v far from log₂M = %v", m, r, ideal)
		}
	}
	// Tripling log₂M (32→256: 5→8 bits... 8/5 = 1.6) scales both phases.
	for phase, pair := range map[string][2]float64{
		"phase1": {byM[32].p1, byM[256].p1},
		"phase2": {byM[32].p2, byM[256].p2},
	} {
		gain := pair[1] / pair[0]
		if gain < 1.3 || gain > 2.0 {
			t.Errorf("%s: ratio gain 32→256 = %v, want ≈ 1.6", phase, gain)
		}
	}
}

// TestPhasedMatchesAggregate: the phased accounting must sum to exactly the
// single-counter run.
func TestPhasedMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n, m := 900, 16
	input := randomKeys(n, rng)
	var c opcount.Counter
	if _, err := ExternalSort(SortSpec{N: n, M: m}, input, &c); err != nil {
		t.Fatal(err)
	}
	var c1, c2 opcount.Counter
	if _, err := externalSortInternal(SortSpec{N: n, M: m}, input, &c1, &c2); err != nil {
		t.Fatal(err)
	}
	p1, p2, whole := c1.Snapshot(), c2.Snapshot(), c.Snapshot()
	if p1.Ops+p2.Ops != whole.Ops || p1.Cio()+p2.Cio() != whole.Cio() {
		t.Errorf("phases (%+v + %+v) != whole %+v", p1, p2, whole)
	}
}

// TestExternalSortAllocsIndependentOfN: the sort works in buffers allocated
// once per call, so its allocation count does not grow with N (a slice per
// run or per merge would add ~M allocations at N = M²).
func TestExternalSortAllocsIndependentOfN(t *testing.T) {
	allocs := func(m int) float64 {
		n := m * m
		input := randomKeys(n, rand.New(rand.NewSource(47)))
		return testing.AllocsPerRun(3, func() {
			var c opcount.Counter
			if _, err := ExternalSort(SortSpec{N: n, M: m}, input, &c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(256); small != large {
		t.Errorf("allocs/op = %v at M=64 and %v at M=256, want equal", small, large)
	}
}
