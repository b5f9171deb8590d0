// Package memsim simulates a PE's local memory as a cache over an address
// trace: fully associative LRU and Belady's offline optimal (OPT)
// replacement. A miss is one word fetched from outside the PE, so the
// miss count of a trace is the Cio a cache of that size would actually incur
// — the executable counterpart of the paper's §1 observation that a local
// memory "caches frequently used data ... so that the required I/O bandwidth
// with the outside world is reduced".
//
// The package also generates the address traces of naive and blocked matrix
// multiplication, letting the E12 experiment demonstrate that the blocked
// decomposition (not merely the presence of a cache) is what achieves the
// paper's Θ(√M) compute-to-I/O ratio.
package memsim

import (
	"fmt"
	"slices"
)

// Ref is one word-granular memory reference.
type Ref struct {
	Addr  uint64
	Write bool
}

// Result summarizes a cache simulation. Misses is the number of words
// fetched from outside (the I/O cost in the paper's model, under a
// read-traffic accounting with write-allocate and no writeback counting).
type Result struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

func validateCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("memsim: capacity %d must be positive", capacity)
	}
	return nil
}

// SimulateLRU replays the trace through a fully associative cache of the
// given word capacity with least-recently-used replacement.
func SimulateLRU(trace []Ref, capacity int) (Result, error) {
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

// SimulateOPT replays the trace through a fully associative cache with
// Belady's optimal (furthest-future-use) replacement, the offline lower
// bound no online policy can beat. It runs in O(T log C) time using a lazy
// max-heap over next-use distances. Every hit leaves a stale entry behind,
// so when the heap outgrows 2·capacity+64 entries it is filtered to the
// live ones and rebuilt, in O(C) amortized over the Ω(C) pushes since the
// last rebuild. Only words never referenced again share a next use, so
// the heap's order among ties cannot change the Result.
func SimulateOPT(trace []Ref, capacity int) (Result, error) {
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

type optEntry struct {
	nextUse int
	addr    uint64
}

// optHeap is a max-heap on nextUse.
type optHeap []optEntry

func (h *optHeap) push(e optEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].nextUse >= (*h)[i].nextUse {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// heapify restores the heap order of arbitrary entries.
func (h optHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *optHeap) pop() optEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// down sifts the entry at i toward the leaves until both children's next
// uses are no later than its own.
func (h optHeap) down(i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].nextUse > h[child].nextUse {
			child++
		}
		if h[i].nextUse >= h[child].nextUse {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// DistinctWords returns the number of distinct addresses in the trace — the
// compulsory-miss floor every policy must pay.
func DistinctWords(trace []Ref) uint64 {
	seen := make(map[uint64]struct{})
	for _, r := range trace {
		seen[r.Addr] = struct{}{}
	}
	return uint64(len(seen))
}
