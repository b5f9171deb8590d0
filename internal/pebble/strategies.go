package pebble

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// GreedySchedule produces a legal schedule that computes every vertex once
// in topological order, keeping operands in red pebbles and evicting with a
// Belady-style furthest-next-use policy. Evicted values that are still
// needed are written out (Output) before deletion so they can be re-read
// later; values with no remaining consumers are deleted for free. Declared
// outputs are written out when computed.
//
// GreedySchedule requires s ≥ MaxInDegree+1 red pebbles.
func GreedySchedule(d *DAG, s int) (Schedule, error) {
	if need := d.MaxInDegree() + 1; s < need {
		return nil, fmt.Errorf("pebble: %d red pebbles < required %d (max in-degree + 1)", s, need)
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int, d.Len()) // topo position of each vertex
	for i, v := range order {
		pos[v] = i
	}

	// uses[d.succOff[v]:d.succOff[v+1]] lists the topo positions of v's
	// consumers, ascending; uses[next[v]] is the first one still pending.
	uses := make([]int, len(d.succs))
	next := make([]int, d.Len())
	for v := 0; v < d.Len(); v++ {
		row := uses[d.succOff[v]:d.succOff[v+1]]
		for i, c := range d.Succs(v) {
			row[i] = pos[c]
		}
		slices.Sort(row)
		next[v] = d.succOff[v]
	}
	exhausted := func(v int) bool { return next[v] == d.succOff[v+1] }

	isOutput := make([]bool, d.Len())
	for _, v := range d.Outputs() {
		isOutput[v] = true
	}

	var sched Schedule
	red := newRedSet(d.Len(), s)
	blue := make([]bool, d.Len())
	for _, v := range d.Inputs() {
		blue[v] = true
	}

	nextUse := func(v int) int {
		if exhausted(v) {
			return math.MaxInt
		}
		return uses[next[v]]
	}
	// evictOne drops the red vertex used furthest in the future; ties go
	// to the lowest vertex, so the schedule never depends on set order.
	evictOne := func() {
		victim, worst := -1, -1
		for _, v := range red.members {
			if nu := nextUse(v); nu > worst || nu == worst && v < victim {
				victim, worst = v, nu
			}
		}
		if !blue[victim] && nextUse(victim) != math.MaxInt {
			sched = append(sched, Move{Output, victim})
			blue[victim] = true
		}
		sched = append(sched, Move{Delete, victim})
		red.remove(victim)
	}
	makeRoom := func(n int) {
		for len(red.members)+n > s {
			evictOne()
		}
	}

	for _, v := range order {
		if d.IsInput(v) {
			continue
		}
		// Bring missing operands into red pebbles.
		for _, p := range d.Preds(v) {
			if red.has(p) {
				continue
			}
			if !blue[p] {
				// A needed operand was evicted without Output —
				// impossible by construction of evictOne.
				return nil, fmt.Errorf("pebble: internal error: operand %s neither red nor blue", d.Label(p))
			}
			makeRoom(1)
			sched = append(sched, Move{Input, p})
			red.add(p)
		}
		// Compute v. Operands are protected from eviction by their
		// imminent next use (== v's position, the minimum possible).
		makeRoom(1)
		sched = append(sched, Move{Compute, v})
		red.add(v)
		if isOutput[v] {
			sched = append(sched, Move{Output, v})
			blue[v] = true
		}
		// Consume one pending use of each operand; drop operands that
		// are exhausted.
		for _, p := range d.Preds(v) {
			next[p]++
			if exhausted(p) && red.has(p) {
				sched = append(sched, Move{Delete, p})
				red.remove(p)
			}
		}
		if exhausted(v) && red.has(v) {
			sched = append(sched, Move{Delete, v})
			red.remove(v)
		}
	}
	return sched, nil
}

// redSet is a set of red-pebbled vertices: members lists them in no
// particular order, and at[v] is v's index in members, or -1.
type redSet struct {
	members []int
	at      []int
}

func newRedSet(n, s int) *redSet {
	r := &redSet{members: make([]int, 0, min(n, s)), at: make([]int, n)}
	for v := range r.at {
		r.at[v] = -1
	}
	return r
}

func (r *redSet) has(v int) bool { return r.at[v] >= 0 }

func (r *redSet) add(v int) {
	r.at[v] = len(r.members)
	r.members = append(r.members, v)
}

// remove swaps the last member into v's place.
func (r *redSet) remove(v int) {
	i, last := r.at[v], r.members[len(r.members)-1]
	r.members[i], r.at[last] = last, i
	r.members = r.members[:len(r.members)-1]
	r.at[v] = -1
}

// BlockedFFTSchedule pebbles an n-point FFTDAG with the Fig. 2 block
// decomposition at block size m (a power of two ≤ n): passes of log₂m
// levels; within a pass each block's current values are Input, the block's
// sub-network is computed level by level, and the results are Output. It
// needs s = m + 2 red pebbles (the block plus one butterfly in flight) and
// costs exactly 2·n·passes I/O (+n for the final outputs already counted).
func BlockedFFTSchedule(n, m int) (Schedule, int, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, 0, fmt.Errorf("pebble: FFT size %d must be a power of two ≥ 2", n)
	}
	if m < 2 || bits.OnesCount(uint(m)) != 1 || m > n {
		return nil, 0, fmt.Errorf("pebble: block %d must be a power of two in [2, %d]", m, n)
	}
	totalLevels := bits.TrailingZeros(uint(n))
	perPass := bits.TrailingZeros(uint(m))
	// A pass over lp levels inputs, outputs and deletes each of the n
	// values once and computes and deletes 2n per level: n·(3 + 2·lp)
	// moves.
	moves := 0
	for levelLo := 0; levelLo < totalLevels; levelLo += perPass {
		moves += n * (3 + 2*min(perPass, totalLevels-levelLo))
	}
	sched := make(Schedule, 0, moves)
	idx := make([]int, 0, m)

	for levelLo := 0; levelLo < totalLevels; levelLo += perPass {
		lp := min(perPass, totalLevels-levelLo)
		groupSize := 1 << lp
		stride := 1 << levelLo
		for g := 0; g < n/groupSize; g++ {
			base := g&(stride-1) | (g >> levelLo << (levelLo + lp))
			// Input the block's current-level values.
			idx = idx[:groupSize]
			for t := 0; t < groupSize; t++ {
				idx[t] = base + t*stride
			}
			for _, i := range idx {
				sched = append(sched, Move{Input, FFTVertex(n, levelLo, i)})
			}
			// Compute lp levels butterfly by butterfly: place both
			// results, then delete both operands.
			for l := 0; l < lp; l++ {
				lev := levelLo + l
				half := 1 << l
				for bb := 0; bb < groupSize; bb += 2 * half {
					for k := 0; k < half; k++ {
						i0, i1 := idx[bb+k], idx[bb+k+half]
						sched = append(sched,
							Move{Compute, FFTVertex(n, lev+1, i0)},
							Move{Compute, FFTVertex(n, lev+1, i1)},
							Move{Delete, FFTVertex(n, lev, i0)},
							Move{Delete, FFTVertex(n, lev, i1)},
						)
					}
				}
			}
			// Output the block's final-level values and clear reds.
			for _, i := range idx {
				v := FFTVertex(n, levelLo+lp, i)
				sched = append(sched, Move{Output, v}, Move{Delete, v})
			}
		}
	}
	return sched, m + 2, nil
}
