package memsim

// Oracles for the analytic hierarchy model. A recursive (cache-oblivious)
// matrix product is replayed through LRU caches of every boundary's
// cumulative capacity W_i. In an exclusive hierarchy kept in global LRU
// order, levels 1..i hold exactly the W_i most recently used words, so the
// traffic across boundary i is the miss count of one LRU cache of W_i words
// (the LRU stack property) — no multi-level simulator is needed. The
// measured traffic must then show the paper's Θ(√W) ratio with a constant
// that holds across boundaries, pick the binding boundary that
// model.AnalyzeHierarchy predicts, and never beat the Hong–Kung floor.

import (
	"fmt"
	"math"
	"testing"

	"balarch/internal/model"
	"balarch/internal/pebble"
)

// recursiveMatMulTrace is the address stream of the cache-oblivious n×n
// product (n a power of two): split the i, j and k ranges in half and
// recurse on the eight sub-products, C quadrant outermost; at 1×1 read
// A(i,k) and B(k,j), then write C(i,j). No block size is tuned to any
// cache, so every capacity sees the same Θ(√W) reuse.
func recursiveMatMulTrace(n int) []Ref {
	baseA, baseB, baseC := matmulBases(n)
	un := uint64(n)
	trace := make([]Ref, 0, 3*n*n*n)
	var rec func(i, j, k, s uint64)
	rec = func(i, j, k, s uint64) {
		if s == 1 {
			trace = append(trace,
				Ref{Addr: baseA + i*un + k},
				Ref{Addr: baseB + k*un + j},
				Ref{Addr: baseC + i*un + j, Write: true})
			return
		}
		h := s / 2
		for _, d := range [8][3]uint64{
			{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
			{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
		} {
			rec(i+d[0]*h, j+d[1]*h, k+d[2]*h, h)
		}
	}
	rec(0, 0, 0, un)
	return trace
}

// oracleN is the replayed product size: 786,432 references, about 15 ms
// per LRU replay.
const oracleN = 64

// boundaryCapacities are the cumulative capacities W the oracles replay,
// from a few dozen words up to the whole working set 3n².
var boundaryCapacities = []int{48, 192, 768, 3072, 12288}

// boundaryMisses replays the recursive trace once per capacity.
func boundaryMisses(t *testing.T) map[int]uint64 {
	t.Helper()
	trace := Trace{refs: recursiveMatMulTrace(oracleN), words: 3 * oracleN * oracleN}
	out := make(map[int]uint64, len(boundaryCapacities))
	for _, w := range boundaryCapacities {
		res, err := SimulateLRU(trace, w)
		if err != nil {
			t.Fatal(err)
		}
		out[w] = res.Misses
	}
	return out
}

func TestRecursiveMatMulTraceShape(t *testing.T) {
	trace := recursiveMatMulTrace(4)
	if len(trace) != 3*4*4*4 {
		t.Fatalf("trace has %d refs, want %d", len(trace), 3*4*4*4)
	}
	if got := Renumber(trace).Words(); got != 3*4*4 {
		t.Errorf("trace touches %d words, want %d", got, 3*4*4)
	}
	// Every multiply-add A(i,k)·B(k,j) into C(i,j) appears exactly once.
	seen := map[[3]uint64]bool{}
	baseA, baseB, baseC := matmulBases(4)
	for p := 0; p < len(trace); p += 3 {
		a, b, c := trace[p].Addr-baseA, trace[p+1].Addr-baseB, trace[p+2].Addr-baseC
		i, k, j := a/4, a%4, c%4
		if b != k*4+j || c != i*4+j || !trace[p+2].Write {
			t.Fatalf("ref %d: A%d B%d C%d is not one multiply-add", p, a, b, c)
		}
		seen[[3]uint64{i, j, k}] = true
	}
	if len(seen) != 4*4*4 {
		t.Errorf("%d distinct multiply-adds, want 64", len(seen))
	}
}

// TestLRUBoundaryRatioIsSqrtW: measured ops per word of boundary traffic,
// divided by √W, stays inside one constant band at every boundary, as
// R(W) = √W (paper §3.1) says it must; and traffic never grows with W (the
// inclusion property the stack argument rests on).
func TestLRUBoundaryRatioIsSqrtW(t *testing.T) {
	const lo, hi = 0.18, 0.22 // measured 0.1925–0.1945 at n = 64
	misses := boundaryMisses(t)
	ops := float64(oracleN * oracleN * oracleN)
	prev := uint64(math.MaxUint64)
	for _, w := range boundaryCapacities {
		k := ops / float64(misses[w]) / math.Sqrt(float64(w))
		t.Logf("W=%5d misses=%6d  (ops/misses)/√W = %.4f", w, misses[w], k)
		if k < lo || k > hi {
			t.Errorf("W=%d: (ops/misses)/√W = %.4f outside [%v, %v]", w, k, lo, hi)
		}
		if misses[w] > prev {
			t.Errorf("W=%d: %d misses, more than the smaller cache's %d", w, misses[w], prev)
		}
		prev = misses[w]
	}
}

// TestLRUBindingBoundaryMatchesModel: on level stacks whose cumulative
// capacities come from boundaryCapacities, the boundary with the most
// traffic time (misses_i/BW_i) is AnalyzeHierarchy's binding boundary for
// matrix multiplication, whenever the model's top two boundary scores
// differ by at least 2× (the measured constant varies by under 10%, so a
// 2× separation cannot be reordered by it).
func TestLRUBindingBoundaryMatchesModel(t *testing.T) {
	misses := boundaryMisses(t)
	mm := model.MatrixMultiplication()
	drops := []float64{1, 2, 4, 8, 16, 32} // BW_i / BW_{i+1}
	checked, outer := 0, 0
	var walk func(h model.Hierarchy, within float64, next int)
	walk = func(h model.Hierarchy, within float64, next int) {
		if h.Depth() >= 2 {
			if binding, separated := checkBinding(t, h, mm, misses); separated {
				checked++
				if binding > 1 {
					outer++
				}
			}
		}
		if h.Depth() == 3 {
			return
		}
		for wi := next; wi < len(boundaryCapacities); wi++ {
			w := float64(boundaryCapacities[wi])
			for _, d := range drops {
				bw := 1e9 // the innermost bandwidth is fixed
				if h.Depth() > 0 {
					bw = h.Levels[h.Depth()-1].BW / d
				} else if d != 1 {
					continue
				}
				g := model.Hierarchy{C: 1e11, Levels: append(append([]model.Level(nil), h.Levels...),
					model.Level{Name: fmt.Sprintf("L%d", h.Depth()+1), BW: bw, M: w - within})}
				walk(g, w, wi+1)
			}
		}
	}
	walk(model.Hierarchy{C: 1e11}, 0, 0)
	if checked < 50 || outer == 0 || outer == checked {
		t.Fatalf("%d stacks separated ≥2×, %d of them bound beyond boundary 1: the oracle is vacuous", checked, outer)
	}
	t.Logf("%d stacks checked, %d bound beyond boundary 1", checked, outer)
}

// checkBinding compares the measured and predicted binding boundaries of
// one stack. separated reports whether the model's top two scores differ
// by ≥2×; only then is a mismatch an error.
func checkBinding(t *testing.T, h model.Hierarchy, c model.Computation, misses map[int]uint64) (binding int, separated bool) {
	t.Helper()
	a, err := model.AnalyzeHierarchy(h, c, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	var first, second float64
	measured, worst := 0, -1.0
	for i, b := range a.Boundaries {
		score := b.Intensity / b.AchievableRatio
		if score > first {
			first, second = score, first
		} else if score > second {
			second = score
		}
		if tm := float64(misses[int(b.CapacityWithin)]) / b.Level.BW; tm > worst {
			worst, measured = tm, i+1
		}
	}
	if first < 2*second {
		return a.Binding, false
	}
	if measured != a.Binding {
		t.Errorf("%v: measured traffic binds boundary %d, model predicts %d", h, measured, a.Binding)
	}
	return a.Binding, true
}

// TestLRUMissesRespectHongKung: no replacement policy beats the pebble
// bound, so the recursive trace's LRU traffic at W is never below
// MatMulLowerBound(n, W). At the smallest capacities the Hong–Kung term,
// not the 3n² compulsory floor, is the bound being tested.
func TestLRUMissesRespectHongKung(t *testing.T) {
	misses := boundaryMisses(t)
	for _, w := range boundaryCapacities {
		bound := pebble.MatMulLowerBound(oracleN, w)
		if float64(misses[w]) < bound {
			t.Errorf("W=%d: %d misses below the Hong–Kung bound %.0f", w, misses[w], bound)
		}
	}
	if w := boundaryCapacities[0]; pebble.MatMulLowerBound(oracleN, w) <= 3*oracleN*oracleN {
		t.Errorf("W=%d: the Hong–Kung term does not exceed the compulsory floor, so the check is vacuous", w)
	}
}
