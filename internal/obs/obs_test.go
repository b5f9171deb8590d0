package obs

import (
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for i := 0; i < NumStages; i++ {
		st := Stage(i)
		name := st.String()
		if name == "" {
			t.Fatalf("stage %d has no name", i)
		}
		back, ok := StageByName(name)
		if !ok || back != st {
			t.Fatalf("StageByName(%q) = %v, %v; want %v, true", name, back, ok, st)
		}
	}
	if _, ok := StageByName("no-such-stage"); ok {
		t.Fatal("StageByName accepted an unknown name")
	}
}

func TestStageSetObserve(t *testing.T) {
	s := new(StageSet)
	s.Observe(StageDecode, 50*time.Microsecond) // bucket 0 (≤ 100 µs)
	s.Observe(StageDecode, 4*time.Millisecond)  // bucket 5 (≤ 5 ms)
	s.Observe(StageDecode, 4*time.Millisecond)  // bucket 5
	s.Observe(StageDecode, 20*time.Second)      // overflow

	snap := s.Snapshot(StageDecode)
	want := [NumBuckets]int64{0: 1, 5: 2}
	if snap.Counts != want {
		t.Fatalf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Over != 1 || snap.Count != 4 {
		t.Fatalf("over = %d count = %d, want 1, 4", snap.Over, snap.Count)
	}
	if wantSum := 50*time.Microsecond + 8*time.Millisecond + 20*time.Second; snap.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if snap.Max != 20*time.Second {
		t.Fatalf("max = %v, want 20s", snap.Max)
	}

	// Untouched stages must read as empty, and other stages must not
	// have absorbed decode's observations.
	if got := s.Snapshot(StageCompute); got.Count != 0 {
		t.Fatalf("compute count = %d, want 0", got.Count)
	}

	// Boundary: an observation exactly at a bound lands in that bound's
	// bucket (le semantics), one nanosecond more in the next.
	s.Observe(StageEncode, time.Millisecond)
	s.Observe(StageEncode, time.Millisecond+1)
	if got := s.Snapshot(StageEncode); got.Counts[3] != 1 || got.Counts[4] != 1 {
		t.Fatalf("boundary observations landed in %v", got.Counts)
	}
}

func TestStageSetNilSafe(t *testing.T) {
	var s *StageSet
	s.Observe(StageDecode, time.Second) // must not panic
}
