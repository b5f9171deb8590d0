package pebble

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

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
	if _, err := OptimalIO(newDAG(40, nil, nil, nil), 2); err == nil {
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

// randomDAG draws a DAG of n vertices in which each vertex consumes up to
// three of the four before it, so sinks, the outputs, stay few.
func randomDAG(rng *rand.Rand, n int) *DAG {
	var edges [][2]int
	consumed := make([]bool, n)
	for v := 1; v < n; v++ {
		w := min(v, 4)
		for _, u := range rng.Perm(w)[:rng.Intn(min(w, 3)+1)] {
			edges = append(edges, [2]int{v - 1 - u, v})
			consumed[v-1-u] = true
		}
	}
	var outputs []int
	for v := range n {
		if !consumed[v] {
			outputs = append(outputs, v)
		}
	}
	return newDAG(n, edges, outputs, nil)
}

// TestOptimalIOMatchesDequeSearch: OptimalIO returns the same optimum and
// the same error text as the deque search over a map that the
// level-by-level search replaced, kept below verbatim, on three seeded
// random DAGs of each size from 1 to 12 vertices and on every builder's
// tiny instances, at every red pebble budget from 1 to n+1.
func TestOptimalIOMatchesDequeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2212))
	var dags []*DAG
	for i := range 36 {
		dags = append(dags, randomDAG(rng, 1+i%12))
	}
	dags = append(dags, tinyDAGs(t)...)
	var solved, refused int
	for _, d := range dags {
		for s := 1; s <= d.Len()+1; s++ {
			got, err := OptimalIO(d, s)
			want, werr := dequeOptimalIO(d, s)
			if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%d vertices, S=%d: (%d, %v), deque search (%d, %v)", d.Len(), s, got, err, want, werr)
			}
			if err == nil {
				solved++
			} else {
				refused++
			}
		}
	}
	if solved < 100 || refused < 10 {
		t.Errorf("%d budgets solved and %d refused; the DAGs no longer cover both", solved, refused)
	}
}

// tinyDAGs builds every builder's tiny instances, those of E11 among them.
func tinyDAGs(t *testing.T) []*DAG {
	t.Helper()
	var dags []*DAG
	for _, build := range []func() (*DAG, error){
		func() (*DAG, error) { return FFTDAG(2) },
		func() (*DAG, error) { return FFTDAG(4) },
		func() (*DAG, error) { return MatMulDAG(1) },
		func() (*DAG, error) { return Stencil1DDAG(3, 2) },
		func() (*DAG, error) { return Stencil1DDAG(4, 1) },
		func() (*DAG, error) { return Stencil2DDAG(3, 1) },
		func() (*DAG, error) { return DiamondDAG(2) },
		func() (*DAG, error) { return DiamondDAG(3) },
		func() (*DAG, error) { return ChainDAG(8) },
		func() (*DAG, error) { return BinaryTreeDAG(4) },
	} {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		dags = append(dags, d)
	}
	return dags
}

// TestOptimalIOMatchesLevelSearch: the A* search returns the same optimum
// and the same error text as the level-by-level 0-1 BFS it replaced, kept
// below verbatim, on five seeded random DAGs of each size from 1 to 12
// vertices and on every builder's tiny instances (E11's chain(8),
// diamond(2), tree(4) and fft(4) among them), at every red pebble budget
// from 1 to n.
func TestOptimalIOMatchesLevelSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2701))
	var dags []*DAG
	for i := range 60 {
		dags = append(dags, randomDAG(rng, 1+i%12))
	}
	dags = append(dags, tinyDAGs(t)...)
	var solved, refused int
	for _, d := range dags {
		for s := 1; s <= d.Len(); s++ {
			got, err := OptimalIO(d, s)
			want, werr := levelOptimalIO(d, s)
			if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%d vertices, S=%d: (%d, %v), level search (%d, %v)", d.Len(), s, got, err, want, werr)
			}
			if err == nil {
				solved++
			} else {
				refused++
			}
		}
	}
	if solved < 150 || refused < 10 {
		t.Errorf("%d budgets solved and %d refused; the DAGs no longer cover both", solved, refused)
	}
}

// TestOptimalIOStateCapBracket: a search stopped at its state cap reports
// a lower bound that the optimum respects, the bound rises as the cap
// does, and a cap high enough to pass a bucket proves more than the
// outputs-only bound of the start state.
func TestOptimalIOStateCapBracket(t *testing.T) {
	d, err := FFTDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	const s = 4
	opt, err := OptimalIO(d, s)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, maxStates := range []int{0, 10, 100, 1000, 3000} {
		_, err := optimalIO(d, s, maxStates)
		var capped *StateCapError
		if !errors.As(err, &capped) {
			t.Fatalf("cap %d: error %v, want a *StateCapError", maxStates, err)
		}
		if capped.States != maxStates || capped.Lower > opt || capped.Lower < prev {
			t.Fatalf("cap %d: %+v; optimum %d, previous bound %d", maxStates, *capped, opt, prev)
		}
		want := fmt.Sprintf("pebble: search exceeded %d states; the optimum is at least %d", maxStates, capped.Lower)
		if err.Error() != want {
			t.Errorf("cap %d: error %q, want %q", maxStates, err, want)
		}
		prev = capped.Lower
	}
	if outputs := len(d.Outputs()); prev <= outputs {
		t.Errorf("largest cap proves only %d, no more than the %d outputs", prev, outputs)
	}
}

// levelOptimalIO is the OptimalIO that ran a 0-1 BFS one distance level
// at a time, kept verbatim as the reference for
// TestOptimalIOMatchesLevelSearch.
func levelOptimalIO(d *DAG, s int) (int, error) {
	n := d.Len()
	if n > 32 {
		return 0, fmt.Errorf("pebble: exhaustive search supports ≤ 32 vertices, got %d", n)
	}
	if s < 1 {
		return 0, fmt.Errorf("pebble: red pebble budget %d must be ≥ 1", s)
	}
	if need := d.MaxInDegree() + 1; s < need && len(d.Outputs()) > 0 {
		// With fewer pebbles than an operation's operands + result, no
		// non-input vertex can ever be computed.
		for _, v := range d.Outputs() {
			if !d.IsInput(v) {
				return 0, fmt.Errorf("pebble: %d red pebbles cannot compute any vertex (need %d)", s, need)
			}
		}
	}

	var blueInit uint32
	for _, v := range d.Inputs() {
		blueInit |= 1 << uint(v)
	}
	var goal uint32
	for _, v := range d.Outputs() {
		goal |= 1 << uint(v)
	}

	// predMask[v] holds v's operands; it is 0 exactly for inputs.
	predMask := make([]uint32, n)
	for v := range n {
		for _, p := range d.Preds(v) {
			predMask[v] |= 1 << uint(p)
		}
	}

	type state struct{ red, blue uint32 }
	start := state{0, blueInit}
	dist := newDistTable()
	dist.relax(key(start.red, start.blue), 0)
	// 0-1 BFS one distance level at a time: cur holds the states queued
	// at distance level, which zero-cost moves push to, and next those at
	// level+1, which cost-1 moves push to. A state whose distance dropped
	// after it was queued is skipped where it was queued.
	var cur, next []state
	level := 0
	relax := func(st state, cost int) {
		if !dist.relax(key(st.red, st.blue), int32(level+cost)) {
			return
		}
		if cost == 0 {
			cur = append(cur, st)
		} else {
			next = append(next, st)
		}
	}

	cur = append(cur, start)
	for len(cur) > 0 || len(next) > 0 {
		if len(cur) == 0 {
			cur, next = next, cur
			level++
		}
		st := cur[len(cur)-1]
		cur = cur[:len(cur)-1]
		if dist.get(key(st.red, st.blue)) != int32(level) {
			continue
		}
		if st.blue&goal == goal {
			return level, nil
		}
		if dist.len > MaxSearchStates {
			return 0, fmt.Errorf("pebble: search exceeded %d states", MaxSearchStates)
		}

		redCount := bits.OnesCount32(st.red)

		// Placements: every vertex not currently red that is either
		// computable (all preds red) or inputtable (blue).
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if st.red&bit != 0 {
				continue
			}
			computable := predMask[v] != 0 && st.red&predMask[v] == predMask[v]
			inputtable := st.blue&bit != 0
			if !computable && !inputtable {
				continue
			}
			cost := 1 // Input
			if computable {
				cost = 0 // Compute is free; prefer it when legal
			}
			if redCount < s {
				relax(state{st.red | bit, st.blue}, cost)
			} else {
				// Evict one red pebble first. When computing,
				// the victim must not be one of v's operands.
				var protected uint32
				if computable {
					protected = predMask[v]
				}
				for u := 0; u < n; u++ {
					ubit := uint32(1) << uint(u)
					if st.red&ubit == 0 || protected&ubit != 0 {
						continue
					}
					relax(state{st.red&^ubit | bit, st.blue}, cost)
				}
			}
		}
		// Outputs: write any red, not-yet-blue vertex.
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if st.red&bit != 0 && st.blue&bit == 0 {
				relax(state{st.red, st.blue | bit}, 1)
			}
		}
	}
	return 0, fmt.Errorf("pebble: no pebbling with %d red pebbles reaches all outputs", s)
}

// dequeOptimalIO is the parent's OptimalIO, whose deque prepends on every
// zero-cost move, kept verbatim as the reference for
// TestOptimalIOMatchesDequeSearch.
func dequeOptimalIO(d *DAG, s int) (int, error) {
	n := d.Len()
	if n > 32 {
		return 0, fmt.Errorf("pebble: exhaustive search supports ≤ 32 vertices, got %d", n)
	}
	if s < 1 {
		return 0, fmt.Errorf("pebble: red pebble budget %d must be ≥ 1", s)
	}
	if need := d.MaxInDegree() + 1; s < need && len(d.Outputs()) > 0 {
		// With fewer pebbles than an operation's operands + result, no
		// non-input vertex can ever be computed.
		for _, v := range d.Outputs() {
			if !d.IsInput(v) {
				return 0, fmt.Errorf("pebble: %d red pebbles cannot compute any vertex (need %d)", s, need)
			}
		}
	}

	var blueInit uint32
	for _, v := range d.Inputs() {
		blueInit |= 1 << uint(v)
	}
	var goal uint32
	for _, v := range d.Outputs() {
		goal |= 1 << uint(v)
	}

	type state struct{ red, blue uint32 }
	start := state{0, blueInit}
	dist := map[uint64]int{key(start.red, start.blue): 0}
	// 0-1 BFS deque.
	deque := []state{start}
	popFront := func() state {
		st := deque[0]
		deque = deque[1:]
		return st
	}

	for len(deque) > 0 {
		st := popFront()
		cur := dist[key(st.red, st.blue)]
		if st.blue&goal == goal {
			return cur, nil
		}
		if len(dist) > MaxSearchStates {
			return 0, fmt.Errorf("pebble: search exceeded %d states", MaxSearchStates)
		}

		redCount := bits.OnesCount32(st.red)
		relax := func(next state, cost int) {
			k := key(next.red, next.blue)
			nd := cur + cost
			if old, ok := dist[k]; ok && old <= nd {
				return
			}
			dist[k] = nd
			if cost == 0 {
				deque = append([]state{next}, deque...)
			} else {
				deque = append(deque, next)
			}
		}

		// Placements: every vertex not currently red that is either
		// computable (all preds red) or inputtable (blue).
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if st.red&bit != 0 {
				continue
			}
			computable := !d.IsInput(v)
			if computable {
				for _, p := range d.Preds(v) {
					if st.red&(1<<uint(p)) == 0 {
						computable = false
						break
					}
				}
			}
			inputtable := st.blue&bit != 0
			if !computable && !inputtable {
				continue
			}
			cost := 1 // Input
			if computable {
				cost = 0 // Compute is free; prefer it when legal
			}
			if redCount < s {
				relax(state{st.red | bit, st.blue}, cost)
			} else {
				// Evict one red pebble first. When computing,
				// the victim must not be one of v's operands.
				var protected uint32
				if computable {
					for _, p := range d.Preds(v) {
						protected |= 1 << uint(p)
					}
				}
				for u := 0; u < n; u++ {
					ubit := uint32(1) << uint(u)
					if st.red&ubit == 0 || protected&ubit != 0 {
						continue
					}
					relax(state{st.red&^ubit | bit, st.blue}, cost)
				}
			}
		}
		// Outputs: write any red, not-yet-blue vertex.
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if st.red&bit != 0 && st.blue&bit == 0 {
				relax(state{st.red, st.blue | bit}, 1)
			}
		}
	}
	return 0, fmt.Errorf("pebble: no pebbling with %d red pebbles reaches all outputs", s)
}
