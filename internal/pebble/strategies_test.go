package pebble

import (
	"slices"
	"testing"
	"testing/quick"
)

// mustGreedy builds, executes and returns the greedy result.
func mustGreedy(t *testing.T, d *DAG, s int) ExecResult {
	t.Helper()
	sched, err := GreedySchedule(d, s)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	res, err := Execute(d, s, sched)
	if err != nil {
		t.Fatalf("greedy schedule illegal: %v", err)
	}
	return res
}

func TestGreedyOnChain(t *testing.T) {
	d, err := ChainDAG(10)
	if err != nil {
		t.Fatal(err)
	}
	res := mustGreedy(t, d, 2)
	if res.IO() != 2 {
		t.Errorf("chain IO = %d, want 2 (one read, one write)", res.IO())
	}
}

func TestGreedyOnTreeAmplePebbles(t *testing.T) {
	d, err := BinaryTreeDAG(8)
	if err != nil {
		t.Fatal(err)
	}
	res := mustGreedy(t, d, 16)
	// With ample pebbles: 8 leaf reads + 1 root write.
	if res.IO() != 9 {
		t.Errorf("tree IO = %d, want 9", res.IO())
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	for _, s := range []int{3, 4, 6, 10} {
		d, err := FFTDAG(8)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := GreedySchedule(d, s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(d, s, sched)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if res.PeakRed > s {
			t.Errorf("s=%d: peak red %d exceeds budget", s, res.PeakRed)
		}
		if res.IO() < TrivialLowerBound(d) {
			t.Errorf("s=%d: IO %d below trivial bound %d", s, res.IO(), TrivialLowerBound(d))
		}
	}
}

func TestGreedyRejectsTooFewPebbles(t *testing.T) {
	d, err := FFTDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedySchedule(d, 2); err == nil {
		t.Error("budget below max in-degree + 1 accepted")
	}
}

func TestGreedyMoreMemoryNeverHurts(t *testing.T) {
	d, err := MatMulDAG(3)
	if err != nil {
		t.Fatal(err)
	}
	prev := int(^uint(0) >> 1)
	for _, s := range []int{3, 6, 12, 24, 63} {
		res := mustGreedy(t, d, s)
		if res.IO() > prev {
			t.Errorf("s=%d: IO %d worse than smaller memory %d", s, res.IO(), prev)
		}
		prev = res.IO()
	}
}

// TestGreedyDeterministic: the 1-D stencil at S = 6 has eviction ties in
// next use, so a schedule that broke them by map order would differ from
// run to run (I/O 53 on some, 54 on others).
func TestGreedyDeterministic(t *testing.T) {
	d, err := Stencil1DDAG(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := GreedySchedule(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		sched, err := GreedySchedule(d, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sched, first) {
			t.Fatalf("run %d: schedule differs from run 0", run)
		}
	}
}

// TestGreedyTieBreaksToLowestVertex pins evictOne's tie-break. Inputs 0,
// 1 and 2 feed a = 3 and b = 4 (both from 0) and c = 5 (from 1 and 2);
// the sink 6 consumes a, b and c. At S = 4, computing c needs a fifth
// pebble while a and b are both next used by 6, the furthest use: the
// tie must evict a, the lower vertex, which 6 then reads back.
func TestGreedyTieBreaksToLowestVertex(t *testing.T) {
	d := newDAG(7, [][2]int{{0, 3}, {0, 4}, {1, 5}, {2, 5}, {3, 6}, {4, 6}, {5, 6}}, []int{6}, nil)
	sched, err := GreedySchedule(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{Input, 0}, {Compute, 3}, {Compute, 4}, {Delete, 0},
		{Input, 1}, {Input, 2},
		{Output, 3}, {Delete, 3}, // the tie: 3 and 4 both wait for 6
		{Compute, 5}, {Delete, 1}, {Delete, 2},
		{Input, 3}, {Compute, 6}, {Output, 6},
		{Delete, 3}, {Delete, 4}, {Delete, 5}, {Delete, 6},
	}
	if !slices.Equal(sched, want) {
		t.Fatalf("schedule = %v\nwant       %v", sched, want)
	}
	if _, err := Execute(d, 4, sched); err != nil {
		t.Fatalf("schedule illegal: %v", err)
	}
}

func TestBlockedFFTScheduleLegalAndExactIO(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{16, 4}, {16, 2}, {16, 16}, {64, 8}, {128, 8},
	} {
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
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if len(sched) != cap(sched) {
			t.Errorf("n=%d m=%d: %d moves in a schedule preallocated for %d", tc.n, tc.m, len(sched), cap(sched))
		}
		// Exactly 2N words per pass, matching CountBlockedFFT's I/O.
		totalLevels, perPass := 0, 0
		for v := tc.n; v > 1; v >>= 1 {
			totalLevels++
		}
		for v := tc.m; v > 1; v >>= 1 {
			perPass++
		}
		passes := (totalLevels + perPass - 1) / perPass
		if want := 2 * tc.n * passes; res.IO() != want {
			t.Errorf("n=%d m=%d: IO = %d, want %d", tc.n, tc.m, res.IO(), want)
		}
		if res.PeakRed > tc.m+2 {
			t.Errorf("n=%d m=%d: peak red %d exceeds m+2", tc.n, tc.m, res.PeakRed)
		}
	}
}

func TestBlockedFFTScheduleValidation(t *testing.T) {
	if _, _, err := BlockedFFTSchedule(12, 4); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	if _, _, err := BlockedFFTSchedule(16, 32); err == nil {
		t.Error("block larger than N accepted")
	}
	if _, _, err := BlockedFFTSchedule(16, 3); err == nil {
		t.Error("non-power-of-two block accepted")
	}
}

// TestBlockedFFTMemoryIOTradeoff is the §3.4 shape on the pebble game
// itself: doubling log₂m halves the number of passes and hence the I/O.
func TestBlockedFFTMemoryIOTradeoff(t *testing.T) {
	n := 4096 // 12 levels
	io := map[int]int{}
	for _, m := range []int{4, 16, 64, 4096} {
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
		io[m] = res.IO()
	}
	// 12 levels: m=4 → 6 passes; m=16 → 3; m=64 → 2; m=4096 → 1.
	if io[4] != 2*io[16] || io[16] != 3*io[4096] || io[64] != 2*io[4096] {
		t.Errorf("I/O progression wrong: %v", io)
	}
}

// Property: greedy schedules are always legal and meet the trivial bound.
func TestGreedyLegalProperty(t *testing.T) {
	f := func(kind uint8, s8 uint8) bool {
		var d *DAG
		var err error
		switch kind % 4 {
		case 0:
			d, err = FFTDAG(8)
		case 1:
			d, err = MatMulDAG(2)
		case 2:
			d, err = Stencil1DDAG(6, 2)
		default:
			d, err = BinaryTreeDAG(4)
		}
		if err != nil {
			return false
		}
		s := d.MaxInDegree() + 1 + int(s8%12)
		sched, err := GreedySchedule(d, s)
		if err != nil {
			return false
		}
		res, err := Execute(d, s, sched)
		if err != nil {
			return false
		}
		return res.PeakRed <= s && res.IO() >= TrivialLowerBound(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
