package model

import (
	"fmt"
	"math"
)

// RatioFunc gives the best achievable Ccomp/Cio for a computation when the
// PE has m words of local memory, in the paper's asymptotic regime N ≫ M.
// Every computation in §3 is characterized by such a function: √M for matrix
// computations, M^(1/d) for d-dimensional grids, log₂M for FFT and sorting,
// and a constant for I/O-bounded computations.
type RatioFunc func(m float64) float64

// Computation is one row of the paper's §3 analysis: a named computational
// task with its achievable compute-to-I/O ratio and its memory growth law.
type Computation struct {
	// Name is the human-readable task name.
	Name string
	// Section is the paper locus deriving this row, e.g. "§3.1".
	Section string
	// IOBounded marks computations that cannot be rebalanced by memory
	// alone (paper §3.6).
	IOBounded bool
	// Law is the closed-form memory growth law from the paper.
	Law GrowthLaw
	// Ratio is the asymptotic achievable Ccomp/Cio as a function of
	// local memory size, matching the decomposition scheme the paper
	// analyzes (leading term, constants included).
	Ratio RatioFunc
	// MinMemory is the smallest local memory (words) for which the
	// decomposition scheme is meaningful (e.g. a 2×2 matrix block).
	MinMemory float64
}

// String identifies the computation.
func (c Computation) String() string {
	return fmt.Sprintf("%s (%s): %s", c.Name, c.Section, c.Law.Describe())
}

// RequiredMemory returns the smallest local memory size m (words) such that
// the computation's achievable ratio meets or exceeds the machine intensity
// x = C/IO, i.e. the memory a PE needs to be balanced (not I/O bound) for
// this computation. It returns ErrNotRebalanceable when the intensity is
// unreachable for any memory size below maxM. The cap itself must be
// positive and finite; a bad cap is an argument error, never
// ErrNotRebalanceable.
//
// The search assumes Ratio is nondecreasing in m, which holds for every
// computation in the paper, and uses exponential bracketing followed by
// bisection, so it works for √M, M^(1/d), and log₂M shapes alike.
func (c Computation) RequiredMemory(x, maxM float64) (float64, error) {
	if !(x > 0) {
		return 0, fmt.Errorf("model: intensity %v must be positive", x)
	}
	if !(maxM > 0) || math.IsInf(maxM, 1) {
		return 0, fmt.Errorf("model: memory cap max_memory=%v must be positive and finite", maxM)
	}
	lo := c.MinMemory
	if lo <= 0 {
		lo = 1
	}
	if c.Ratio(lo) >= x {
		return lo, nil
	}
	// Bracket: grow hi until the ratio reaches x or we exceed maxM.
	hi := lo
	for c.Ratio(hi) < x {
		hi *= 2
		if hi > maxM {
			if c.Ratio(maxM) < x {
				return 0, fmt.Errorf("%w: intensity %.4g unreachable below M=%.4g for %s",
					ErrNotRebalanceable, x, maxM, c.Name)
			}
			hi = maxM
			break
		}
	}
	// Bisect for the smallest m with Ratio(m) ≥ x.
	for i := 0; i < 200 && hi-lo > math.Max(1e-9, 1e-12*hi); i++ {
		mid := lo + (hi-lo)/2
		if c.Ratio(mid) >= x {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// Rebalance answers the paper's central question numerically: given a PE
// balanced at memory mOld, and an increase of C/IO by factor alpha, return
// the minimum memory restoring balance. It inverts the Ratio function
// rather than using the closed-form Law, so tests can check the two agree.
func (c Computation) Rebalance(alpha, mOld, maxM float64) (float64, error) {
	if err := checkRebalanceArgs(alpha, mOld); err != nil {
		return 0, err
	}
	target := alpha * c.Ratio(mOld)
	return c.RequiredMemory(target, maxM)
}

// RebalanceClosedForm answers the same question via the paper's closed-form
// growth law.
func (c Computation) RebalanceClosedForm(alpha, mOld float64) (float64, error) {
	return c.Law.MNew(alpha, mOld)
}

// Analysis bundles the balance diagnosis of one PE running one computation.
type Analysis struct {
	Computation string
	PE          PE
	// Intensity is the machine's C/IO.
	Intensity float64
	// AchievableRatio is R(M) at the PE's memory size.
	AchievableRatio float64
	// State classifies the PE: balanced, I/O bound, or compute bound.
	State BalanceState
	// BalancedMemory is the minimum memory at which this PE would be
	// balanced for the computation; 0 if unreachable (I/O bounded).
	BalancedMemory float64
	// Rebalanceable is false for I/O-bounded computations whose required
	// intensity exceeds the achievable ratio at any memory size.
	Rebalanceable bool
}

// Analyze diagnoses a PE against a computation: compares the machine
// intensity C/IO with the achievable ratio R(M) and computes the memory that
// would restore balance. maxM bounds the numeric search. The flat PE is the
// one-level hierarchy, so the verdict comes from the same boundary test
// AnalyzeHierarchy applies at every boundary.
func Analyze(pe PE, c Computation, maxM float64) (Analysis, error) {
	if err := pe.Validate(); err != nil {
		return Analysis{}, err
	}
	b, err := diagnoseBoundary(c, pe.Intensity(), pe.M, maxM)
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{
		Computation:     c.Name,
		PE:              pe,
		Intensity:       b.Intensity,
		AchievableRatio: b.AchievableRatio,
		State:           b.State,
		BalancedMemory:  b.BalancedMemory,
		Rebalanceable:   b.Rebalanceable,
	}, nil
}

func nearlyEqual(a, b, tol float64) bool {
	ref := math.Max(math.Abs(a), math.Abs(b))
	return ref == 0 || math.Abs(a-b) <= tol*ref
}
