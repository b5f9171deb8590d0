package model

// Property-based tests (testing/quick) for the hierarchy core, mirroring
// quick_test.go's discipline: the claims are universally quantified — a
// one-level hierarchy IS the flat PE, rebalancing is monotone in α, and a
// hierarchy built balanced analyzes balanced at every boundary — so the
// tests quantify instead of spot-checking.

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// drawHierarchy builds a valid hierarchy from fuzzed raw words: 1–4 levels,
// log-uniform capacities in [8, 10⁶] per level, bandwidths decreasing
// outward from a log-uniform head, compute rate a multiple of the innermost
// bandwidth. Always passes Validate by construction.
func drawHierarchy(rawC, rawBW uint16, rawM [4]uint16, depth int) Hierarchy {
	if depth < 1 {
		depth = 1
	}
	if depth > 4 {
		depth = 4
	}
	bw := 1e6 * math.Pow(100, scale01(rawBW)) // [1e6, 1e8]
	h := Hierarchy{C: bw * (1 + 63*scale01(rawC))}
	for i := 0; i < depth; i++ {
		m := 8 * math.Pow(1e6/8, scale01(rawM[i]))
		h.Levels = append(h.Levels, Level{BW: bw, M: m})
		bw /= 2 // strictly decreasing outward
	}
	return h
}

// referenceAnalyze is the flat balance diagnosis written out on its own,
// as Analyze computed it before the flat PE became the one-level
// hierarchy. It shares no code with diagnoseBoundary, so the equivalence
// tests below compare the one analytic path against an independent
// statement of the paper's §2 test rather than against itself.
func referenceAnalyze(pe PE, c Computation, maxM float64) (Analysis, error) {
	if err := pe.Validate(); err != nil {
		return Analysis{}, err
	}
	a := Analysis{
		Computation:     c.Name,
		PE:              pe,
		Intensity:       pe.Intensity(),
		AchievableRatio: c.Ratio(pe.M),
	}
	// With memory M the computation sustains R(M) ops per word of I/O, so
	// compute time : I/O time = intensity : R(M).
	ref := math.Max(math.Abs(a.Intensity), math.Abs(a.AchievableRatio))
	switch {
	case ref == 0 || math.Abs(a.Intensity-a.AchievableRatio) <= BalanceTolerance*ref:
		a.State = Balanced
	case a.Intensity > a.AchievableRatio:
		a.State = IOBound
	default:
		a.State = ComputeBound
	}
	m, err := c.RequiredMemory(a.Intensity, maxM)
	if err == nil {
		a.BalancedMemory = m
		a.Rebalanceable = true
	} else if !errors.Is(err, ErrNotRebalanceable) {
		return Analysis{}, err
	}
	return a, nil
}

// sameDiagnosis compares a boundary verdict with a flat one bit for bit.
func sameDiagnosis(b BoundaryAnalysis, a Analysis) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return b.State == a.State && b.Rebalanceable == a.Rebalanceable &&
		same(b.Intensity, a.Intensity) && same(b.AchievableRatio, a.AchievableRatio) &&
		same(b.BalancedMemory, a.BalancedMemory) && same(b.CapacityWithin, a.PE.M)
}

// TestQuickOneLevelHierarchyEquivalentToFlatPE: for every computation in
// the extended catalog and any PE shape, AnalyzeHierarchy of the one-level
// lift and the Analyze adapter both agree bit for bit with the reference
// flat diagnosis on every field, and fail with the same error text.
func TestQuickOneLevelHierarchyEquivalentToFlatPE(t *testing.T) {
	for _, comp := range propComputations() {
		comp := comp
		prop := func(rawC, rawIO, rawM uint16) bool {
			pe := PE{
				C:  1e6 * (1 + 999*scale01(rawC)),
				IO: 1e6 * (1 + 9*scale01(rawIO)),
				M:  drawMOld(comp, rawM),
			}
			want, errR := referenceAnalyze(pe, comp, DefaultPropMaxMemory)
			flat, errF := Analyze(pe, comp, DefaultPropMaxMemory)
			ha, errH := AnalyzeHierarchy(FromPE(pe), comp, DefaultPropMaxMemory)
			if fmt.Sprint(errR) != fmt.Sprint(errF) || (errR == nil) != (errH == nil) {
				t.Logf("%s: error mismatch: reference %v, flat %v, hierarchy %v", comp.Name, errR, errF, errH)
				return false
			}
			if errR != nil {
				return true
			}
			if flat != want {
				t.Logf("%s: Analyze %+v != reference %+v", comp.Name, flat, want)
				return false
			}
			if ha.Binding != 1 || len(ha.Boundaries) != 1 {
				t.Logf("%s: one-level binding %d, boundaries %d", comp.Name, ha.Binding, len(ha.Boundaries))
				return false
			}
			if ha.State != want.State || !sameDiagnosis(ha.Boundaries[0], want) {
				t.Logf("%s: hierarchy %+v != reference %+v", comp.Name, ha.Boundaries[0], want)
				return false
			}
			return true
		}
		if err := quick.Check(prop, quickConfig); err != nil {
			t.Errorf("%s: %v", comp.Name, err)
		}
	}
}

// TestQuickOneLevelRebalanceMatchesFlat: start from a PE balanced at M_old
// (C = IO·R(M_old), the flat Rebalance premise); the one-level hierarchy
// bill must equal the flat answer.
func TestQuickOneLevelRebalanceMatchesFlat(t *testing.T) {
	for _, comp := range propComputations() {
		if comp.IOBounded {
			continue
		}
		comp := comp
		prop := func(rawM, rawA uint16) bool {
			mOld := drawMOld(comp, rawM)
			alpha := drawAlpha(rawA)
			const io = 1e6
			pe := PE{C: io * comp.Ratio(mOld), IO: io, M: mOld}
			if !(pe.C > 0) {
				return true // ratio ≤ 0 below the meaningful regime
			}
			flat, errF := comp.Rebalance(alpha, mOld, DefaultPropMaxMemory)
			hr, errH := RebalanceHierarchy(FromPE(pe), comp, alpha, DefaultPropMaxMemory)
			if errF != nil || errH != nil {
				t.Logf("%s: flat err %v, hierarchy err %v", comp.Name, errF, errH)
				return false
			}
			if !hr.Rebalanceable {
				t.Logf("%s: hierarchy not rebalanceable where flat answered %v", comp.Name, flat)
				return false
			}
			// Same question, same numeric search: the answers agree up to
			// bisection jitter (and the no-shrink floor at M_old).
			want := math.Max(flat, mOld)
			if rel := math.Abs(hr.TotalMemory-want) / want; rel > 1e-6 {
				t.Logf("%s: α=%v M_old=%v: hierarchy bill %v vs flat %v",
					comp.Name, alpha, mOld, hr.TotalMemory, want)
				return false
			}
			return true
		}
		if err := quick.Check(prop, quickConfig); err != nil {
			t.Errorf("%s: %v", comp.Name, err)
		}
	}
}

// TestQuickHierarchyRebalanceMonotoneInAlpha: per-boundary requirements and
// the total bill never decrease when α grows, on any drawn hierarchy shape.
func TestQuickHierarchyRebalanceMonotoneInAlpha(t *testing.T) {
	for _, comp := range propComputations() {
		if comp.IOBounded {
			continue
		}
		comp := comp
		prop := func(rawC, rawBW uint16, rawM [4]uint16, rawDepth uint8, rawA1, rawA2 uint16) bool {
			h := drawHierarchy(rawC, rawBW, rawM, 1+int(rawDepth)%4)
			a1, a2 := drawAlpha(rawA1), drawAlpha(rawA2)
			if a1 > a2 {
				a1, a2 = a2, a1
			}
			r1, err1 := RebalanceHierarchy(h, comp, a1, DefaultPropMaxMemory)
			r2, err2 := RebalanceHierarchy(h, comp, a2, DefaultPropMaxMemory)
			if err1 != nil || err2 != nil {
				t.Logf("%s: %v / %v", comp.Name, err1, err2)
				return false
			}
			if !r1.Rebalanceable || !r2.Rebalanceable {
				// The larger α may push a boundary out of reach while the
				// smaller one is fine — but never the reverse.
				if r1.Rebalanceable && !r2.Rebalanceable {
					return true
				}
				return !r1.Rebalanceable && !r2.Rebalanceable
			}
			for i := range r1.Boundaries {
				// Bisection answers carry ~1e-12 relative jitter.
				if r2.Boundaries[i].RequiredWithin < r1.Boundaries[i].RequiredWithin*(1-1e-9) {
					t.Logf("%s: boundary %d: required(%v)=%v > required(%v)=%v", comp.Name,
						i+1, a1, r1.Boundaries[i].RequiredWithin, a2, r2.Boundaries[i].RequiredWithin)
					return false
				}
			}
			if r2.TotalMemory < r1.TotalMemory*(1-1e-9) {
				t.Logf("%s: total bill not monotone: %v (α=%v) > %v (α=%v)",
					comp.Name, r1.TotalMemory, a1, r2.TotalMemory, a2)
				return false
			}
			return true
		}
		if err := quick.Check(prop, quickConfig); err != nil {
			t.Errorf("%s: %v", comp.Name, err)
		}
	}
}

// TestQuickBalancedHierarchyAnalyzesBalanced: build a hierarchy balanced by
// construction — pick capacities, then set each boundary's bandwidth to
// C/R(CapacityWithin) — and AnalyzeHierarchy must report every boundary
// balanced (and therefore the binding one, and the machine).
func TestQuickBalancedHierarchyAnalyzesBalanced(t *testing.T) {
	for _, comp := range propComputations() {
		if comp.IOBounded {
			continue // constant ratios make every boundary's BW equal; still valid
		}
		comp := comp
		prop := func(rawC uint16, rawM [4]uint16, rawDepth uint8) bool {
			depth := 1 + int(rawDepth)%4
			c := 1e6 * (1 + 999*scale01(rawC))
			h := Hierarchy{C: c}
			var cum float64
			for i := 0; i < depth; i++ {
				m := drawMOld(comp, rawM[i])
				cum += m
				r := comp.Ratio(cum)
				if r <= 0 {
					return true // below the meaningful regime
				}
				h.Levels = append(h.Levels, Level{BW: c / r, M: m})
			}
			// R is nondecreasing in the cumulative capacity, so BW = C/R is
			// non-increasing outward: Validate holds by construction.
			a, err := AnalyzeHierarchy(h, comp, DefaultPropMaxMemory)
			if err != nil {
				t.Logf("%s: %v", comp.Name, err)
				return false
			}
			for _, b := range a.Boundaries {
				if b.State != Balanced {
					t.Logf("%s: boundary %d of balanced hierarchy is %v (intensity %v vs R %v)",
						comp.Name, b.Boundary, b.State, b.Intensity, b.AchievableRatio)
					return false
				}
			}
			if a.State != Balanced {
				t.Logf("%s: overall state %v, want balanced", comp.Name, a.State)
				return false
			}
			return true
		}
		if err := quick.Check(prop, quickConfig); err != nil {
			t.Errorf("%s: %v", comp.Name, err)
		}
	}
}
