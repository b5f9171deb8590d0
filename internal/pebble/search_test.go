package pebble

import "testing"

func TestOptimalChain(t *testing.T) {
	d, err := ChainDAG(6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimalIO(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("chain optimal IO = %d, want 2", got)
	}
}

func TestOptimalDiamond(t *testing.T) {
	d, err := DiamondDAG(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimalIO(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("diamond optimal IO = %d, want 2", got)
	}
	// In-degree 2 means 2 pebbles can never compute the join.
	if _, err := OptimalIO(d, 2); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestOptimalTreeMemorySensitivity(t *testing.T) {
	d, err := BinaryTreeDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	// S=4: 4 leaf reads + 1 root write = 5, no spills.
	got4, err := OptimalIO(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got4 != 5 {
		t.Errorf("tree(4) S=4 optimal = %d, want 5", got4)
	}
	// S=3: one internal value must round-trip (or its leaves re-read): 7.
	got3, err := OptimalIO(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != 7 {
		t.Errorf("tree(4) S=3 optimal = %d, want 7", got3)
	}
}

func TestOptimalTwoInputSum(t *testing.T) {
	d := twoInputSum()
	got, err := OptimalIO(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("sum optimal = %d, want 3 (2 reads + 1 write)", got)
	}
}

// TestOptimalVsGreedySmallFFT: on a 4-point FFT the exhaustive optimum must
// lower-bound the greedy and blocked strategies, and with ample memory all
// three must coincide at the trivial 2N.
func TestOptimalVsGreedySmallFFT(t *testing.T) {
	d, err := FFTDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{4, 6, 12} {
		opt, err := OptimalIO(d, s)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		res := mustGreedy(t, d, s)
		if opt > res.IO() {
			t.Errorf("s=%d: optimal %d exceeds greedy %d", s, opt, res.IO())
		}
		if opt < TrivialLowerBound(d) {
			t.Errorf("s=%d: optimal %d below trivial bound %d", s, opt, TrivialLowerBound(d))
		}
	}
	// Ample memory: everything fits, optimum hits the trivial bound.
	opt, err := OptimalIO(d, 12)
	if err != nil {
		t.Fatal(err)
	}
	if opt != TrivialLowerBound(d) {
		t.Errorf("ample-memory optimal = %d, want trivial %d", opt, TrivialLowerBound(d))
	}
}

// TestOptimalBlockedFFTTightAtSmallSize: for N=4, M=2 the blocked schedule's
// 2 passes cost 16; the exhaustive optimum at the same pebble budget (m+2=4)
// must be ≤ that and ≥ the trivial 8.
func TestOptimalBlockedFFTBracketed(t *testing.T) {
	n, m := 4, 2
	sched, s, err := BlockedFFTSchedule(n, m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FFTDAG(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(d, s, sched)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalIO(d, s)
	if err != nil {
		t.Fatal(err)
	}
	if opt > res.IO() {
		t.Errorf("optimal %d exceeds blocked %d", opt, res.IO())
	}
	if opt < 8 {
		t.Errorf("optimal %d below trivial 8", opt)
	}
}

func TestOptimalMonotoneInMemory(t *testing.T) {
	d, err := FFTDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	prev := int(^uint(0) >> 1)
	for _, s := range []int{3, 4, 5, 6, 8, 12} {
		opt, err := OptimalIO(d, s)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if opt > prev {
			t.Errorf("s=%d: optimum %d worse than with less memory (%d)", s, opt, prev)
		}
		prev = opt
	}
}

func TestOptimalValidation(t *testing.T) {
	d := twoInputSum()
	if _, err := OptimalIO(d, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := OptimalIO(NewDAG(40), 2); err == nil {
		t.Error("oversized DAG accepted")
	}
}

func TestLowerBoundFormulas(t *testing.T) {
	// Matmul: at tiny S the Hong-Kung term dominates; at huge S the
	// trivial term takes over.
	if got := MatMulLowerBound(64, 16); got <= 3*64*64 {
		t.Errorf("matmul bound at small S = %v, should exceed trivial", got)
	}
	if got := MatMulLowerBound(8, 1<<20); got != 3*8*8 {
		t.Errorf("matmul bound at huge S = %v, want trivial %d", got, 3*8*8)
	}
	// FFT: trivial floor 2N applies for large S.
	if got := FFTLowerBound(16, 1<<20); got != 32 {
		t.Errorf("fft bound at huge S = %v, want 32", got)
	}
	if got := FFTLowerBound(1<<20, 4); got <= 2*(1<<20) {
		t.Errorf("fft bound at tiny S = %v, should exceed trivial", got)
	}
}

// TestBoundsHoldAgainstSchedules: achieved I/O of legal schedules must
// respect the closed-form lower bounds.
func TestBoundsHoldAgainstSchedules(t *testing.T) {
	// Blocked FFT vs FFT bound.
	for _, tc := range []struct{ n, m int }{{16, 4}, {64, 8}, {256, 16}} {
		sched, s, err := BlockedFFTSchedule(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		d, err := FFTDAG(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(d, s, sched)
		if err != nil {
			t.Fatal(err)
		}
		if bound := FFTLowerBound(tc.n, s); float64(res.IO()) < bound {
			t.Errorf("n=%d m=%d: achieved %d below bound %v", tc.n, tc.m, res.IO(), bound)
		}
	}
	// Greedy matmul vs matmul bound.
	d, err := MatMulDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{4, 8, 16} {
		res := mustGreedy(t, d, s)
		if bound := MatMulLowerBound(4, s); float64(res.IO()) < bound {
			t.Errorf("s=%d: achieved %d below bound %v", s, res.IO(), bound)
		}
	}
}

// TestHongKungFloorsHoldWhereTheyBind: executed pebblings never beat the
// Hong–Kung bounds, checked at sizes where the Hong–Kung term — not the
// trivial read-inputs-write-outputs floor — is the bound, so the check
// exercises the I/O-versus-memory law itself.
func TestHongKungFloorsHoldWhereTheyBind(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1024, 2}, {2048, 4}, {4096, 2}} {
		sched, s, err := BlockedFFTSchedule(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		d, err := FFTDAG(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(d, s, sched)
		if err != nil {
			t.Fatal(err)
		}
		bound := FFTLowerBound(tc.n, s)
		if bound <= float64(2*tc.n) {
			t.Errorf("FFT n=%d S=%d: bound %v is the trivial floor, the case is vacuous", tc.n, s, bound)
		}
		if float64(res.IO()) < bound {
			t.Errorf("FFT n=%d S=%d: pebbling I/O %d below the Hong–Kung bound %v", tc.n, s, res.IO(), bound)
		}
	}
	for _, tc := range []struct{ n, s int }{{16, 3}, {24, 3}, {24, 4}} {
		d, err := MatMulDAG(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		res := mustGreedy(t, d, tc.s)
		bound := MatMulLowerBound(tc.n, tc.s)
		if bound <= float64(3*tc.n*tc.n) {
			t.Errorf("matmul n=%d S=%d: bound %v is the trivial floor, the case is vacuous", tc.n, tc.s, bound)
		}
		if float64(res.IO()) < bound {
			t.Errorf("matmul n=%d S=%d: pebbling I/O %d below the Hong–Kung bound %v", tc.n, tc.s, res.IO(), bound)
		}
	}
}
