package memsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func refs(addrs ...uint64) []Ref {
	out := make([]Ref, len(addrs))
	for i, a := range addrs {
		out[i] = Ref{Addr: a}
	}
	return out
}

func TestLRUBasic(t *testing.T) {
	// Capacity 2; classic LRU behavior.
	trace := Renumber(refs(1, 2, 1, 3, 2)) // 1m 2m 1h 3m(evict 2) 2m(evict 1)
	res, err := SimulateLRU(trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 4 {
		t.Errorf("misses = %d, want 4", res.Misses)
	}
	if res.Accesses != 5 {
		t.Errorf("accesses = %d, want 5", res.Accesses)
	}
	if res.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", res.Evictions)
	}
}

func TestLRUAllHitsWhenFits(t *testing.T) {
	trace := Renumber(refs(1, 2, 3, 1, 2, 3, 1, 2, 3))
	res, err := SimulateLRU(trace, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3 (compulsory only)", res.Misses)
	}
}

func TestLRUThrashesOnCyclicScan(t *testing.T) {
	// Cyclic scan of k+1 addresses through a k-word LRU misses every time.
	var trace []Ref
	for rep := 0; rep < 5; rep++ {
		for a := uint64(0); a < 4; a++ {
			trace = append(trace, Ref{Addr: a})
		}
	}
	res, err := SimulateLRU(Renumber(trace), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != res.Accesses {
		t.Errorf("misses = %d of %d, want all misses", res.Misses, res.Accesses)
	}
}

func TestOPTBeatsLRUOnCyclicScan(t *testing.T) {
	var trace []Ref
	for rep := 0; rep < 5; rep++ {
		for a := uint64(0); a < 4; a++ {
			trace = append(trace, Ref{Addr: a})
		}
	}
	lru, err := SimulateLRU(Renumber(trace), 3)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SimulateOPT(Renumber(trace), 3)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Misses >= lru.Misses {
		t.Errorf("OPT misses %d not better than LRU %d on cyclic scan", opt.Misses, lru.Misses)
	}
	// OPT on cyclic scan keeps 2 of 4 and re-fetches at most 2 per lap.
	if opt.Misses > 4+2*4 {
		t.Errorf("OPT misses = %d, unexpectedly high", opt.Misses)
	}
}

func TestOPTExactOnTextbookExample(t *testing.T) {
	// Trace 0 1 2 0 1 3 0 1 2 3 at capacity 3: OPT evicts 2 for 3 (2 is
	// the furthest next use), then re-fetches 2 once — 4 compulsory
	// misses + 1 = 5 total.
	trace := Renumber(refs(0, 1, 2, 0, 1, 3, 0, 1, 2, 3))
	res, err := SimulateOPT(trace, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 5 {
		t.Errorf("OPT misses = %d, want 5", res.Misses)
	}
}

func TestCapacityValidation(t *testing.T) {
	for _, sim := range []func(Trace, int) (Result, error){SimulateLRU, SimulateOPT} {
		if _, err := sim(Renumber(refs(1)), 0); err == nil {
			t.Error("capacity 0 accepted")
		}
		if _, err := sim(Renumber(refs(1)), -3); err == nil {
			t.Error("negative capacity accepted")
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := SimulateLRU(Renumber(nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 0 || res.Misses != 0 {
		t.Errorf("empty trace result = %+v", res)
	}
}

func TestDistinctWords(t *testing.T) {
	if got := Renumber(refs(1, 2, 1, 3, 3, 3)).Words(); got != 3 {
		t.Errorf("Words = %d, want 3", got)
	}
	if got := Renumber(nil).Words(); got != 0 {
		t.Errorf("Words of an empty trace = %d, want 0", got)
	}
	// Ids follow first reference and Write flags survive.
	got := Renumber([]Ref{{Addr: 9}, {Addr: 4, Write: true}, {Addr: 9, Write: true}}).refs
	want := []Ref{{Addr: 0}, {Addr: 1, Write: true}, {Addr: 0, Write: true}}
	if !slices.Equal(got, want) {
		t.Errorf("Renumber = %v, want %v", got, want)
	}
}

func TestNaiveTraceShape(t *testing.T) {
	n := 4
	trace, err := NaiveMatMulTrace(n)
	if err != nil {
		t.Fatal(err)
	}
	// 2n³ reads + n² writes.
	want := 2*n*n*n + n*n
	if len(trace.refs) != want {
		t.Errorf("trace length = %d, want %d", len(trace.refs), want)
	}
	checkDense(t, trace, 3*n*n)
}

func TestBlockedTraceDistinctWords(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{8, 4}, {7, 3}, {5, 5}, {6, 1}} {
		trace, err := BlockedMatMulTrace(tc.n, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace.refs) != cap(trace.refs) {
			t.Errorf("n=%d b=%d: %d references in a slice preallocated for %d", tc.n, tc.b, len(trace.refs), cap(trace.refs))
		}
		checkDense(t, trace, 3*tc.n*tc.n)
	}
}

// checkDense fails unless the trace claims words distinct words and its
// addresses are exactly the ids 0..words-1, each referenced.
func checkDense(t *testing.T, trace Trace, words int) {
	t.Helper()
	if trace.Words() != words {
		t.Errorf("Words = %d, want %d", trace.Words(), words)
	}
	seen := make([]bool, words)
	for _, r := range trace.refs {
		if r.Addr >= uint64(words) {
			t.Fatalf("address %d outside [0, %d)", r.Addr, words)
		}
		seen[r.Addr] = true
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Errorf("word %d of %d never referenced", i, words)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NaiveMatMulTrace(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BlockedMatMulTrace(4, 8); err == nil {
		t.Error("b>n accepted")
	}
	if _, err := BlockedMatMulTrace(4, 0); err == nil {
		t.Error("b=0 accepted")
	}
}

// TestBlockedBeatsNaiveUnderLRU is the E12 core claim: with a cache of ≈ b²
// words, the blocked schedule's LRU traffic is far below the naive
// schedule's, approaching the counter model's 2N³/b + N² while naive stays
// near 2N³.
func TestBlockedBeatsNaiveUnderLRU(t *testing.T) {
	n, b := 24, 8
	cache := b*b + 4*b // block + streaming segments + slack
	naive, err := NaiveMatMulTrace(n)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := BlockedMatMulTrace(n, b)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := SimulateLRU(naive, cache)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SimulateLRU(blocked, cache)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Misses*2 >= rn.Misses {
		t.Errorf("blocked misses %d not ≪ naive misses %d at cache %d",
			rb.Misses, rn.Misses, cache)
	}
}

// Property: OPT never misses more than LRU (Belady optimality), and both
// never miss fewer than the compulsory floor.
func TestOPTDominatesLRUProperty(t *testing.T) {
	f := func(seed int64, cap8 uint8) bool {
		capacity := 2 + int(cap8%16)
		rng := rand.New(rand.NewSource(seed))
		trace := make([]Ref, 400)
		for i := range trace {
			trace[i] = Ref{Addr: uint64(rng.Intn(48))}
		}
		dense := Renumber(trace)
		lru, err1 := SimulateLRU(dense, capacity)
		opt, err2 := SimulateOPT(dense, capacity)
		if err1 != nil || err2 != nil {
			return false
		}
		floor := uint64(dense.Words())
		return opt.Misses <= lru.Misses && opt.Misses >= floor && lru.Misses >= floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: enlarging an LRU cache never increases misses (LRU is a stack
// algorithm — the inclusion property).
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64, cap8 uint8) bool {
		c1 := 2 + int(cap8%12)
		c2 := c1 + 4
		rng := rand.New(rand.NewSource(seed))
		trace := make([]Ref, 300)
		for i := range trace {
			trace[i] = Ref{Addr: uint64(rng.Intn(40))}
		}
		small, err1 := SimulateLRU(Renumber(trace), c1)
		big, err2 := SimulateLRU(Renumber(trace), c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return big.Misses <= small.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOPTBoundedHeapMatchesUnbounded: SimulateOPT returns every Result of
// the lazy heap that kept all its stale entries, kept below verbatim, on
// both E12 traces (matmul n = 48, naive and blocked at b = 8) at E12's
// capacities and at 1, 65 and 6912 words, and seeded random traces at
// every capacity up to one past their distinct words.
func TestOPTBoundedHeapMatchesUnbounded(t *testing.T) {
	check := func(name string, trace Trace, capacity int) {
		t.Helper()
		got, err := SimulateOPT(trace, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unboundedSimulateOPT(trace.refs, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s, capacity %d: %+v, unbounded heap %+v", name, capacity, got, want)
		}
	}
	naive, err := NaiveMatMulTrace(48)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := BlockedMatMulTrace(48, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 32, 65, 96, 256, 1024, 4096, 6912} {
		check("naive", naive, capacity)
		check("blocked", blocked, capacity)
	}
	rng := rand.New(rand.NewSource(2213))
	for range 30 {
		words := 1 + rng.Intn(120)
		trace := make([]Ref, 1+rng.Intn(3000))
		for i := range trace {
			// Squaring skews references toward low addresses.
			u := rng.Float64()
			trace[i] = Ref{Addr: uint64(u * u * float64(words)), Write: rng.Intn(4) == 0}
		}
		dense := Renumber(trace)
		for capacity := 1; capacity <= dense.Words()+1; capacity++ {
			check("random", dense, capacity)
		}
	}
}

// unboundedSimulateOPT is the SimulateOPT whose heap kept every stale
// entry, kept verbatim as the reference for
// TestOPTBoundedHeapMatchesUnbounded.
func unboundedSimulateOPT(trace []Ref, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	const never = int(^uint(0) >> 1) // no future use

	// nextUse[t] = next position after t at which trace[t].Addr recurs.
	nextUse := make([]int, len(trace))
	lastSeen := make(map[uint64]int, capacity*2)
	for t := len(trace) - 1; t >= 0; t-- {
		if nxt, ok := lastSeen[trace[t].Addr]; ok {
			nextUse[t] = nxt
		} else {
			nextUse[t] = never
		}
		lastSeen[trace[t].Addr] = t
	}

	var res Result
	resident := make(map[uint64]int, capacity) // addr → its current next use
	h := make(optHeap, 0, capacity)
	for t, ref := range trace {
		res.Accesses++
		if _, ok := resident[ref.Addr]; ok {
			resident[ref.Addr] = nextUse[t]
			h.push(optEntry{nextUse: nextUse[t], addr: ref.Addr})
			continue
		}
		res.Misses++
		if len(resident) == capacity {
			// Evict the resident word whose next use is furthest;
			// skip stale heap entries lazily.
			for {
				e := h.pop()
				if cur, ok := resident[e.addr]; ok && cur == e.nextUse {
					delete(resident, e.addr)
					res.Evictions++
					break
				}
			}
		}
		resident[ref.Addr] = nextUse[t]
		h.push(optEntry{nextUse: nextUse[t], addr: ref.Addr})
	}
	return res, nil
}
