// Package memsim simulates a PE's local memory as a cache over an address
// trace: fully associative LRU and Belady's offline optimal (OPT)
// replacement. A miss is one word fetched from outside the PE, so the
// miss count of a trace is the Cio a cache of that size would actually incur
// — the executable counterpart of the paper's §1 observation that a local
// memory "caches frequently used data ... so that the required I/O bandwidth
// with the outside world is reduced".
//
// A Trace numbers its words densely, 0..Words()-1, so both simulators keep
// their state in slices indexed by word id: Renumber maps an arbitrary
// address stream onto such ids once, and a replay then hashes nothing.
//
// The package also generates the address traces of naive and blocked matrix
// multiplication, letting the E12 experiment demonstrate that the blocked
// decomposition (not merely the presence of a cache) is what achieves the
// paper's Θ(√M) compute-to-I/O ratio. Their addresses already are dense ids.
package memsim

import (
	"fmt"
	"math"
	"slices"
)

// Ref is one word-granular memory reference.
type Ref struct {
	Addr  uint64
	Write bool
}

// Trace is an address stream over dense word ids: every Addr lies in
// [0, Words()) and each id in that range is referenced at least once. The
// simulators index slices by these ids, so a replay allocates nothing that
// grows with the address space and hashes nothing. Build one with Renumber
// or a matmul trace generator.
type Trace struct {
	refs  []Ref
	words int
}

// Renumber maps each distinct address of refs to a dense word id, in order
// of first reference, and returns the renumbered trace; Write flags are
// kept. Renaming words one to one changes no simulation Result.
func Renumber(refs []Ref) Trace {
	ids := make(map[uint64]uint64)
	out := make([]Ref, len(refs))
	for i, r := range refs {
		id, ok := ids[r.Addr]
		if !ok {
			id = uint64(len(ids))
			ids[r.Addr] = id
		}
		out[i] = Ref{Addr: id, Write: r.Write}
	}
	return Trace{refs: out, words: len(ids)}
}

// Words returns the number of distinct words the trace references — the
// compulsory-miss floor every policy must pay.
func (t Trace) Words() int { return t.words }

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

// lruNode is one slot of SimulateLRU's recency list.
type lruNode struct{ word, prev, next int32 }

// SimulateLRU replays the trace through a fully associative cache of the
// given word capacity with least-recently-used replacement.
func SimulateLRU(t Trace, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	if t.words >= math.MaxInt32 {
		return Result{}, fmt.Errorf("memsim: %d distinct words exceed the LRU list's int32 ids", t.words)
	}
	slots := min(capacity, t.words)
	var res Result
	// pos[w] is 1 + the slot holding word w, or 0 when w is not resident.
	pos := make([]int32, t.words)
	// Resident words form a circular doubly linked list, most recent
	// first, through slots 0..slots-1 and the sentinel slot head.
	l := make([]lruNode, slots+1)
	head := int32(slots)
	l[head].prev, l[head].next = head, head
	used := int32(0)
	for _, ref := range t.refs {
		res.Accesses++
		n := pos[ref.Addr] - 1
		switch {
		case n >= 0 && l[head].next == n:
			continue
		case n >= 0:
			l[l[n].prev].next, l[l[n].next].prev = l[n].next, l[n].prev
		default:
			res.Misses++
			if used < head {
				n = used
				used++
			} else {
				n = l[head].prev
				pos[l[n].word] = 0
				l[l[n].prev].next, l[head].prev = head, l[n].prev
				res.Evictions++
			}
			l[n].word = int32(ref.Addr)
			pos[ref.Addr] = n + 1
		}
		first := l[head].next
		l[n].prev, l[n].next = head, first
		l[first].prev, l[head].next = n, n
	}
	return res, nil
}

// SimulateOPT replays the trace through a fully associative cache with
// Belady's optimal (furthest-future-use) replacement, the offline lower
// bound no online policy can beat. It runs in O(T log C) time using a lazy
// max-heap over next-use distances. Every hit leaves a stale entry behind,
// so when the heap outgrows 2·capacity+64 entries it is filtered to the
// live ones and rebuilt, in O(C) amortized over the Ω(C) pushes since the
// last rebuild. Only words never referenced again share a next use, so
// the heap's order among ties cannot change the Result.
func SimulateOPT(t Trace, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	const never = int(^uint(0) >> 1) // no future use

	// nextUse[i] = next position after i at which word t.refs[i].Addr
	// recurs. The backward pass keeps in cur[w] the earliest reference
	// to w that it has seen.
	nextUse := make([]int, len(t.refs))
	cur := make([]int, t.words)
	for w := range cur {
		cur[w] = never
	}
	for i := len(t.refs) - 1; i >= 0; i-- {
		w := t.refs[i].Addr
		nextUse[i] = cur[w]
		cur[w] = i
	}

	// From here cur[w] is the next use of w while w is resident, and
	// notResident otherwise.
	const notResident = -1
	for w := range cur {
		cur[w] = notResident
	}
	var res Result
	resident := 0
	h := make(optHeap, 0, capacity)
	for i, ref := range t.refs {
		res.Accesses++
		if cur[ref.Addr] == notResident {
			res.Misses++
			if resident == capacity {
				// Evict the resident word whose next use is
				// furthest; skip stale heap entries lazily.
				for {
					e := h.pop()
					if cur[e.addr] == e.nextUse {
						cur[e.addr] = notResident
						res.Evictions++
						break
					}
				}
			} else {
				resident++
			}
		}
		cur[ref.Addr] = nextUse[i]
		h.push(optEntry{nextUse: nextUse[i], addr: ref.Addr})
		if len(h) > 2*capacity+64 {
			h = slices.DeleteFunc(h, func(e optEntry) bool {
				return cur[e.addr] != e.nextUse
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
