package memsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDenseReplaysMatchMaps: the dense-id replays return exactly the
// Results of the map-keyed simulators they replaced, kept below verbatim,
// at every capacity from 1 to one past the trace's distinct words, on
// naive and blocked matmul traces of several shapes and on seeded random
// traces whose sparse addresses include 0 and math.MaxUint64.
func TestDenseReplaysMatchMaps(t *testing.T) {
	check := func(name string, refs []Ref, dense Trace) {
		t.Helper()
		for capacity := 1; capacity <= dense.Words()+1; capacity++ {
			for _, sim := range []struct {
				policy    string
				dense     func(Trace, int) (Result, error)
				mapOracle func([]Ref, int) (Result, error)
			}{{"LRU", SimulateLRU, mapSimulateLRU}, {"OPT", SimulateOPT, mapSimulateOPT}} {
				got, err := sim.dense(dense, capacity)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.mapOracle(refs, capacity)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %s, capacity %d: %+v, map-keyed %+v", name, sim.policy, capacity, got, want)
				}
			}
		}
	}
	for _, n := range []int{1, 2, 5, 9} {
		naive, err := NaiveMatMulTrace(n)
		if err != nil {
			t.Fatal(err)
		}
		check("naive", naive.refs, naive)
	}
	for _, nb := range [][2]int{{1, 1}, {6, 4}, {9, 2}, {10, 3}, {8, 8}} {
		blocked, err := BlockedMatMulTrace(nb[0], nb[1])
		if err != nil {
			t.Fatal(err)
		}
		check("blocked", blocked.refs, blocked)
	}
	rng := rand.New(rand.NewSource(2402))
	for range 24 {
		pool := []uint64{0, math.MaxUint64}
		for range rng.Intn(80) {
			pool = append(pool, rng.Uint64())
		}
		refs := make([]Ref, rng.Intn(1500))
		for i := range refs {
			// Squaring skews references toward the pool's head.
			u := rng.Float64()
			refs[i] = Ref{Addr: pool[int(u*u*float64(len(pool)))], Write: rng.Intn(4) == 0}
		}
		dense := Renumber(refs)
		distinct := make(map[uint64]bool)
		for _, r := range refs {
			distinct[r.Addr] = true
		}
		if dense.Words() != len(distinct) {
			t.Fatalf("Renumber counts %d words, want %d", dense.Words(), len(distinct))
		}
		check("random", refs, dense)
	}
}

// mapSimulateLRU is the SimulateLRU that kept its positions in a map keyed
// by address, kept verbatim as the reference for TestDenseReplaysMatchMaps.
func mapSimulateLRU(trace []Ref, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	var res Result
	l := newLRUList(capacity)
	pos := make(map[uint64]int, capacity)
	for _, ref := range trace {
		res.Accesses++
		if node, ok := pos[ref.Addr]; ok {
			l.moveToFront(node)
			continue
		}
		res.Misses++
		if len(pos) == capacity {
			victim := l.back()
			delete(pos, l.addr[victim])
			l.remove(victim)
			res.Evictions++
		}
		node := l.pushFront(ref.Addr)
		pos[ref.Addr] = node
	}
	return res, nil
}

// lruList is an intrusive doubly linked list over preallocated node slots,
// avoiding per-access allocation.
type lruList struct {
	addr       []uint64
	prev, next []int
	head, tail int
	free       []int
}

func newLRUList(capacity int) *lruList {
	l := &lruList{
		addr: make([]uint64, capacity),
		prev: make([]int, capacity),
		next: make([]int, capacity),
		head: -1, tail: -1,
		free: make([]int, 0, capacity),
	}
	for i := capacity - 1; i >= 0; i-- {
		l.free = append(l.free, i)
	}
	return l
}

func (l *lruList) pushFront(addr uint64) int {
	n := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.addr[n] = addr
	l.prev[n] = -1
	l.next[n] = l.head
	if l.head >= 0 {
		l.prev[l.head] = n
	}
	l.head = n
	if l.tail < 0 {
		l.tail = n
	}
	return n
}

func (l *lruList) remove(n int) {
	if l.prev[n] >= 0 {
		l.next[l.prev[n]] = l.next[n]
	} else {
		l.head = l.next[n]
	}
	if l.next[n] >= 0 {
		l.prev[l.next[n]] = l.prev[n]
	} else {
		l.tail = l.prev[n]
	}
	l.free = append(l.free, n)
}

func (l *lruList) moveToFront(n int) {
	if l.head == n {
		return
	}
	// Unlink (without freeing) and relink at head.
	if l.prev[n] >= 0 {
		l.next[l.prev[n]] = l.next[n]
	}
	if l.next[n] >= 0 {
		l.prev[l.next[n]] = l.prev[n]
	} else {
		l.tail = l.prev[n]
	}
	l.prev[n] = -1
	l.next[n] = l.head
	if l.head >= 0 {
		l.prev[l.head] = n
	}
	l.head = n
}

func (l *lruList) back() int { return l.tail }

// mapSimulateOPT is the SimulateOPT that kept next uses and residency in
// maps keyed by address, kept verbatim as the reference for
// TestDenseReplaysMatchMaps.
func mapSimulateOPT(trace []Ref, capacity int) (Result, error) {
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
		if _, ok := resident[ref.Addr]; !ok {
			res.Misses++
			if len(resident) == capacity {
				// Evict the resident word whose next use is
				// furthest; skip stale heap entries lazily.
				for {
					e := h.pop()
					if cur, ok := resident[e.addr]; ok && cur == e.nextUse {
						delete(resident, e.addr)
						res.Evictions++
						break
					}
				}
			}
		}
		resident[ref.Addr] = nextUse[t]
		h.push(optEntry{nextUse: nextUse[t], addr: ref.Addr})
		if len(h) > 2*capacity+64 {
			h = slices.DeleteFunc(h, func(e optEntry) bool {
				cur, ok := resident[e.addr]
				return !ok || cur != e.nextUse
			})
			h.heapify()
		}
	}
	return res, nil
}
