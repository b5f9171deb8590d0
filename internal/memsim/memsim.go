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
	"math/bits"
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
// bound no online policy can beat.
//
// A backward pass first records, for each reference i, the position
// nextUse[i] at which its word next recurs. The replay then keeps one
// pending position per resident word, the position of its next reference,
// in a bitmap over trace positions (posSet). Reference i hits exactly when
// position i is pending, since only a resident word's previous reference
// can have set it. A hit clears i and sets nextUse[i]. A miss with the
// cache full evicts the word whose pending position is highest, by
// clearing that bit; the word itself need not be known. A resident word
// that is never referenced again has no position and is only counted, and
// such words are evicted first. They all share the furthest next use,
// never, and evicting one leaves the same cache for the rest of the trace
// as evicting another, so ties among them cannot change the Result. Every
// other next use is a distinct position, so the choice is unique.
//
// Each bitmap operation touches one word per level, and a trace of T
// references needs ⌈log₆₄ T⌉ levels, so the replay runs in O(T log₆₄ T)
// time. It allocates the int32 next uses, the per-word scratch of the
// backward pass and the bitmap: three allocations whatever the trace
// length or the capacity.
func SimulateOPT(t Trace, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	if len(t.refs) >= math.MaxInt32 {
		return Result{}, fmt.Errorf("memsim: %d references exceed OPT's int32 positions", len(t.refs))
	}
	const never = -1 // no future use

	// nextUse[i] = next position after i at which word t.refs[i].Addr
	// recurs. The backward pass keeps in first[w] the earliest reference
	// to w that it has seen.
	nextUse := make([]int32, len(t.refs))
	first := make([]int32, t.words)
	for w := range first {
		first[w] = never
	}
	for i := len(t.refs) - 1; i >= 0; i-- {
		w := t.refs[i].Addr
		nextUse[i] = first[w]
		first[w] = int32(i)
	}

	var res Result
	pending := newPosSet(len(t.refs))
	resident, dead := 0, 0 // dead: resident words never referenced again
	for i := range t.refs {
		res.Accesses++
		if pending.has(i) {
			pending.clear(i)
		} else {
			res.Misses++
			switch {
			case resident < capacity:
				resident++
			case dead > 0:
				dead--
				res.Evictions++
			default:
				pending.clear(pending.max())
				res.Evictions++
			}
		}
		if nu := nextUse[i]; nu == never {
			dead++
		} else {
			pending.set(int(nu))
		}
	}
	return res, nil
}

// posSet is a set of trace positions in a 64-ary tree of bitmaps: bit p of
// level 0 is position p, and bit j of level l+1 is set exactly when word j
// of level l is non-zero. The top level is one word. All levels share one
// slice, so a set is a single allocation.
type posSet struct {
	levels [posSetMaxLevels][]uint64
	n      int // levels in use
}

// posSetMaxLevels covers 64⁶ = 2³⁶ positions, past SimulateOPT's int32
// limit.
const posSetMaxLevels = 6

func newPosSet(size int) posSet {
	var s posSet
	total := 0
	var widths [posSetMaxLevels]int
	for w := max(1, (size+63)/64); ; w = (w + 63) / 64 {
		widths[s.n] = w
		total += w
		s.n++
		if w == 1 {
			break
		}
	}
	words := make([]uint64, total)
	for l := range s.n {
		s.levels[l], words = words[:widths[l]], words[widths[l]:]
	}
	return s
}

func (s *posSet) has(p int) bool { return s.levels[0][p>>6]&(1<<(p&63)) != 0 }

// set adds p, marking its level-0 word in the level above when that word
// was empty, and so on up.
func (s *posSet) set(p int) {
	for l := range s.n {
		w := &s.levels[l][p>>6]
		was := *w
		*w = was | 1<<(p&63)
		if was != 0 {
			return
		}
		p >>= 6
	}
}

// clear removes p, unmarking each word that it empties in the level above.
func (s *posSet) clear(p int) {
	for l := range s.n {
		w := &s.levels[l][p>>6]
		*w &^= 1 << (p & 63)
		if *w != 0 {
			return
		}
		p >>= 6
	}
}

// max returns the highest position in the set, which must not be empty.
func (s *posSet) max() int {
	p := 0
	for l := s.n - 1; l >= 0; l-- {
		p = p<<6 | (bits.Len64(s.levels[l][p]) - 1)
	}
	return p
}
