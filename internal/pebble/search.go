package pebble

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxSearchStates bounds the exhaustive search's stored state count; past
// it the search returns a *StateCapError rather than consuming unbounded
// memory.
const MaxSearchStates = 8 << 20

// StateCapError reports a search that stored more than States states
// before it finished. Lower is the bound it had proved by then: no
// pebbling costs fewer than Lower I/Os.
type StateCapError struct {
	States int
	Lower  int
}

func (e *StateCapError) Error() string {
	return fmt.Sprintf("pebble: search exceeded %d states; the optimum is at least %d", e.States, e.Lower)
}

// OptimalIO computes the exact minimum I/O cost of pebbling the DAG with at
// most s red pebbles, by A* search over (red set, blue set) states.
// Recomputation is allowed, exactly as in Hong and Kung's game. Only DAGs
// with at most 32 vertices are supported, and practical sizes are smaller;
// use it to validate strategies on tiny instances (E11). A search that
// stores more than MaxSearchStates states stops with a *StateCapError that
// carries the lower bound proved so far.
//
// The search normalizes schedules so that red pebbles are deleted lazily:
// every transition is a placement (Input or Compute), optionally preceded by
// one eviction when the budget is full, or an Output. This preserves
// optimality because early deletion never enables anything.
//
// States are expanded in order of f = g + h, where g is the I/O spent so
// far and h = |goal \ blue| counts the outputs not yet blue: each needs its
// own Output move, so h never overestimates. h is also consistent: Compute
// costs 0 and leaves h alone, Input costs 1 and leaves h alone, and Output
// costs 1 and lowers h by at most 1. So f never falls along a move and
// rises by at most 1, and two slices serve as the priority queue, as in a
// 0-1 breadth-first search on f: cur holds the bucket being expanded and
// next the bucket f+1. Once a bucket is open every state of smaller f has
// been expanded without reaching the goal, so f is a lower bound on the
// optimum, and the first goal state popped is optimal.
func OptimalIO(d *DAG, s int) (int, error) { return optimalIO(d, s, MaxSearchStates) }

// optimalIO is OptimalIO with the state cap as a parameter.
func optimalIO(d *DAG, s, maxStates int) (int, error) {
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
	h := func(blue uint32) int32 { return int32(bits.OnesCount32(goal &^ blue)) }

	// predMask[v] holds v's operands; it is 0 exactly for inputs.
	predMask := make([]uint32, n)
	for v := range n {
		for _, p := range d.Preds(v) {
			predMask[v] |= 1 << uint(p)
		}
	}

	// A queue entry is the bare 8-byte state; its g lives in dist. An
	// entry whose g + h is no longer its bucket's f was superseded by a
	// cheaper path to the same state and is skipped where it was queued.
	type state struct{ red, blue uint32 }
	start := state{0, blueInit}
	dist := newDistTable()
	dist.relax(key(start.red, start.blue), 0)
	var cur, next []state
	f := h(start.blue)
	var g int32 // g of the state being expanded
	relax := func(st state, cost int32) {
		ng := g + cost
		if !dist.relax(key(st.red, st.blue), ng) {
			return
		}
		if ng+h(st.blue) == f {
			cur = append(cur, st)
		} else {
			next = append(next, st)
		}
	}

	cur = append(cur, start)
	for len(cur) > 0 || len(next) > 0 {
		if len(cur) == 0 {
			cur, next = next, cur
			f++
		}
		st := cur[len(cur)-1]
		cur = cur[:len(cur)-1]
		g = dist.get(key(st.red, st.blue))
		if g+h(st.blue) != f {
			continue
		}
		if st.blue&goal == goal {
			return int(f), nil
		}
		if dist.len > maxStates {
			return 0, &StateCapError{States: maxStates, Lower: int(f)}
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
			cost := int32(1) // Input
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

func key(red, blue uint32) uint64 { return uint64(red)<<32 | uint64(blue) }

// distTable maps search-state keys to their distances by open addressing
// with linear probing, at most 3/4 full (at 1/2 it used 22% more bytes on
// FFTDAG(4) and ran no faster). A key's home slot is the top bits of its
// Fibonacci hash, the key times 2⁶⁴/φ: bit j of a product depends only on
// key bits 0..j, so only the top bits see the red set in the key's upper
// half. Key 0 marks an empty slot; no state has it, since every blue set
// holds the DAG's inputs and a DAG has at least one.
type distTable struct {
	keys  []uint64
	dist  []int32
	shift uint // 64 − log₂ len(keys)
	len   int  // keys stored
}

const distTableMinBits = 10

func newDistTable() *distTable {
	return &distTable{
		keys:  make([]uint64, 1<<distTableMinBits),
		dist:  make([]int32, 1<<distTableMinBits),
		shift: 64 - distTableMinBits,
	}
}

// slot returns the slot holding k, or the empty slot where k belongs.
func (t *distTable) slot(k uint64) int {
	mask := len(t.keys) - 1
	i := int((k * 0x9E3779B97F4A7C15) >> t.shift)
	for t.keys[i] != 0 && t.keys[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// get returns k's distance; k must be stored.
func (t *distTable) get(k uint64) int32 { return t.dist[t.slot(k)] }

// relax records distance nd for k unless k already has one no larger, and
// reports whether it did.
func (t *distTable) relax(k uint64, nd int32) bool {
	i := t.slot(k)
	if t.keys[i] == k {
		if t.dist[i] <= nd {
			return false
		}
		t.dist[i] = nd
		return true
	}
	t.keys[i], t.dist[i] = k, nd
	t.len++
	if 4*t.len > 3*len(t.keys) {
		t.grow()
	}
	return true
}

// grow doubles the table and reinserts every key.
func (t *distTable) grow() {
	keys, dist := t.keys, t.dist
	t.keys = make([]uint64, 2*len(keys))
	t.dist = make([]int32, 2*len(keys))
	t.shift--
	for j, k := range keys {
		if k != 0 {
			i := t.slot(k)
			t.keys[i], t.dist[i] = k, dist[j]
		}
	}
}

// MatMulLowerBound returns a valid lower bound on the I/O of any pebbling of
// the n×n matrix product graph with S red pebbles, after Hong & Kung (1981)
// as sharpened by Irony, Toledo & Tiskin: Q ≥ n³/(2√(2S)) − S, floored at
// the trivial bound of reading both operands and writing the result.
func MatMulLowerBound(n, s int) float64 {
	nf, sf := float64(n), float64(s)
	hk := nf*nf*nf/(2*math.Sqrt(2*sf)) - sf
	trivial := 3 * nf * nf // read A and B once, write C once
	return math.Max(hk, trivial)
}

// FFTLowerBound returns a valid lower bound on the I/O of any pebbling of
// the n-point FFT graph with S red pebbles, after Hong & Kung's Θ(N·log N /
// log S) result with a deliberately conservative constant of 1/2, floored at
// the trivial 2N (read all inputs, write all outputs).
func FFTLowerBound(n, s int) float64 {
	if s < 2 {
		s = 2
	}
	nf := float64(n)
	hk := nf * math.Log2(nf) / (2 * math.Log2(float64(s)))
	return math.Max(hk, 2*nf)
}

// TrivialLowerBound returns the universal floor: every input with a
// downstream consumer must be read at least once and every declared output
// written at least once.
func TrivialLowerBound(d *DAG) int {
	count := len(d.Outputs())
	for _, v := range d.Inputs() {
		if len(d.Succs(v)) > 0 {
			count++
		}
	}
	return count
}
