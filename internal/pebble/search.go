package pebble

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxSearchStates bounds the exhaustive search's explored state count; the
// search returns an error rather than consuming unbounded memory.
const MaxSearchStates = 8 << 20

// OptimalIO computes the exact minimum I/O cost of pebbling the DAG with at
// most s red pebbles, by 0-1 breadth-first search over (red set, blue set)
// states. Recomputation is allowed, exactly as in Hong and Kung's game.
// Only DAGs with at most 32 vertices are supported, and practical sizes are
// smaller; use it to validate strategies on tiny instances (E11).
//
// The search normalizes schedules so that red pebbles are deleted lazily:
// every transition is a placement (Input or Compute), optionally preceded by
// one eviction when the budget is full, or an Output. This preserves
// optimality because early deletion never enables anything.
func OptimalIO(d *DAG, s int) (int, error) {
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
	// 0-1 BFS one distance level at a time: cur holds the states queued
	// at distance level, which zero-cost moves push to, and next those at
	// level+1, which cost-1 moves push to. A state whose distance dropped
	// after it was queued is skipped where it was queued.
	var cur, next []state
	level := 0
	relax := func(st state, cost int) {
		k := key(st.red, st.blue)
		nd := level + cost
		if old, ok := dist[k]; ok && old <= nd {
			return
		}
		dist[k] = nd
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
		if dist[key(st.red, st.blue)] != level {
			continue
		}
		if st.blue&goal == goal {
			return level, nil
		}
		if len(dist) > MaxSearchStates {
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

func key(red, blue uint32) uint64 { return uint64(red)<<32 | uint64(blue) }

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
