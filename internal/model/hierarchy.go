package model

// Multi-level memory hierarchies. Kung's model (pe.go) describes one local
// memory M behind one I/O channel IO; every machine we would analyze has a
// hierarchy — registers feed from cache, cache from DRAM, DRAM from disk.
// Hanlon's observation (emulating a large memory with a collection of
// smaller ones) composes here: the region inside boundary i behaves like a
// flat PE whose local memory is the *cumulative* capacity of levels 1..i and
// whose I/O channel is boundary i's bandwidth, so the paper's balance test
// Ccomp/C = Cio/IO applies per boundary. A machine can be cache-balanced and
// disk-I/O-bound at once; the binding boundary — the one with the worst
// I/O-to-compute time ratio — classifies the whole hierarchy, and the flat
// PE is exactly the one-level special case.

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Level is one memory level of a hierarchy: a capacity of M words filled
// through its outer boundary at BW words per second. Levels are ordered
// innermost (fastest, closest to the compute unit) first, so a Level's BW is
// the bandwidth of the channel connecting everything at or inside this level
// to the next level out (or to the outside world, for the last level).
type Level struct {
	// Name optionally labels the level ("cache", "dram", "disk"…).
	Name string
	// BW is the bandwidth across this level's outer boundary, in words
	// per second.
	BW float64
	// M is the level's capacity in words.
	M float64
}

// String renders the level in (BW, M) notation.
func (l Level) String() string {
	name := l.Name
	if name == "" {
		name = "level"
	}
	return fmt.Sprintf("%s{BW=%s words/s, M=%s words}", name, siNumber(l.BW), siNumber(l.M))
}

// Hierarchy is a multi-level machine description: a compute unit of
// bandwidth C ops/s above an ordered list of memory levels, innermost
// first. The flat PE is the exact one-level special case (FromPE / Flat).
type Hierarchy struct {
	// C is the computation bandwidth in operations per second.
	C float64
	// Levels are the memory levels, innermost first. Boundary i (1-based)
	// separates levels 1..i from level i+1 (or the outside world) and
	// carries Levels[i-1].BW.
	Levels []Level
}

// ErrNonMonotoneHierarchy marks a hierarchy whose boundary bandwidths grow
// outward: an outer channel faster than an inner one means the "hierarchy"
// is mis-ordered, and every per-boundary statement below would be about the
// wrong machine. Validate wraps it with the offending boundary pair.
var ErrNonMonotoneHierarchy = errors.New("model: hierarchy bandwidths must be non-increasing outward")

// FromPE lifts a flat PE into its equivalent one-level hierarchy.
func FromPE(pe PE) Hierarchy {
	return Hierarchy{C: pe.C, Levels: []Level{{BW: pe.IO, M: pe.M}}}
}

// Flat returns the equivalent flat PE and true when the hierarchy has
// exactly one level; ok is false otherwise.
func (h Hierarchy) Flat() (pe PE, ok bool) {
	if len(h.Levels) != 1 {
		return PE{}, false
	}
	return PE{C: h.C, IO: h.Levels[0].BW, M: h.Levels[0].M}, true
}

// Depth returns the number of levels (= number of boundaries).
func (h Hierarchy) Depth() int { return len(h.Levels) }

// Validate reports whether the hierarchy is physically meaningful: positive
// finite compute bandwidth, at least one level, positive finite per-level
// bandwidths and capacities, and bandwidths non-increasing outward (the
// monotonicity violation is typed as ErrNonMonotoneHierarchy).
func (h Hierarchy) Validate() error {
	if !(h.C > 0) || math.IsInf(h.C, 0) {
		return fmt.Errorf("model: computation bandwidth C=%v must be positive and finite", h.C)
	}
	if len(h.Levels) == 0 {
		return errors.New("model: hierarchy needs at least one level")
	}
	for i, l := range h.Levels {
		if !(l.BW > 0) || math.IsInf(l.BW, 0) {
			return fmt.Errorf("model: level %d bandwidth BW=%v must be positive and finite", i+1, l.BW)
		}
		if !(l.M > 0) || math.IsInf(l.M, 0) {
			return fmt.Errorf("model: level %d capacity M=%v must be positive and finite", i+1, l.M)
		}
		if math.IsInf(h.C/l.BW, 0) {
			return fmt.Errorf("model: boundary %d intensity C/BW = %v/%v overflows", i+1, h.C, l.BW)
		}
		if i > 0 && l.BW > h.Levels[i-1].BW {
			return fmt.Errorf("%w: level %d has BW=%v behind level %d with BW=%v",
				ErrNonMonotoneHierarchy, i+1, l.BW, i, h.Levels[i-1].BW)
		}
	}
	return nil
}

// CapacityWithin returns the cumulative capacity inside boundary b (1-based):
// the sum of the capacities of levels 1..b — the effective local memory of
// the region boundary b feeds, in the Hanlon composition sense.
func (h Hierarchy) CapacityWithin(b int) float64 {
	var sum float64
	for i := 0; i < b && i < len(h.Levels); i++ {
		sum += h.Levels[i].M
	}
	return sum
}

// TotalCapacity returns the hierarchy's summed capacity.
func (h Hierarchy) TotalCapacity() float64 { return h.CapacityWithin(len(h.Levels)) }

// BoundaryIntensity returns C/BW at boundary b (1-based) — the machine-side
// ratio the computation's achievable ratio must match there for balance.
func (h Hierarchy) BoundaryIntensity(b int) float64 { return h.C / h.Levels[b-1].BW }

// String renders the hierarchy compute-first, innermost level first.
func (h Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hierarchy{C=%s ops/s", siNumber(h.C))
	for _, l := range h.Levels {
		fmt.Fprintf(&b, " | %s@%s", siNumber(l.M), siNumber(l.BW))
	}
	b.WriteString("}")
	return b.String()
}

// BoundaryAnalysis is the paper's balance diagnosis applied to one boundary:
// the region inside boundary b, treated as a flat PE with memory
// CapacityWithin(b) and I/O bandwidth Levels[b-1].BW.
type BoundaryAnalysis struct {
	// Boundary is the 1-based boundary index (boundary b sits outside
	// level b).
	Boundary int
	// Level is the level whose outer boundary this is.
	Level Level
	// CapacityWithin is the cumulative capacity inside the boundary.
	CapacityWithin float64
	// Intensity is C/BW at this boundary.
	Intensity float64
	// AchievableRatio is R(CapacityWithin) for the computation.
	AchievableRatio float64
	// State classifies this boundary: balanced, I/O bound, or compute
	// bound.
	State BalanceState
	// BalancedMemory is the minimum cumulative capacity inside this
	// boundary that balances it; 0 when unreachable.
	BalancedMemory float64
	// Rebalanceable is false when no capacity balances this boundary
	// (I/O-bounded computations).
	Rebalanceable bool
}

// HierarchyAnalysis is the balance diagnosis of a whole hierarchy running
// one computation: every boundary's verdict plus the binding boundary.
type HierarchyAnalysis struct {
	Computation string
	Hierarchy   Hierarchy
	// Boundaries holds one diagnosis per boundary, innermost first.
	Boundaries []BoundaryAnalysis
	// Binding is the 1-based index of the binding boundary — the one with
	// the largest I/O-to-compute time ratio, which limits the machine.
	Binding int
	// State is the hierarchy's overall classification: the binding
	// boundary's state. A hierarchy is balanced only when its binding
	// boundary is (and then, by definition of binding, every other
	// boundary is balanced or compute bound).
	State BalanceState
}

// BindingBoundary returns the binding boundary's diagnosis.
func (a HierarchyAnalysis) BindingBoundary() BoundaryAnalysis {
	return a.Boundaries[a.Binding-1]
}

// boundaryScore orders boundaries by how badly I/O limits them: the ratio
// of I/O time to compute time, Intensity/R. A non-positive achievable ratio
// (a capacity below the computation's meaningful regime) is maximally bound.
func boundaryScore(intensity, ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(1)
	}
	return intensity / ratio
}

// diagnoseBoundary is the paper's balance test (§2) for the region inside
// one boundary, treated as a flat PE: the machine intensity C/BW against
// the achievable ratio R(W) at the cumulative capacity W within it, plus
// the capacity that would balance it. It is the one place the model
// decides a boundary's state; Analyze calls it once, AnalyzeHierarchy once
// per boundary. ErrNotRebalanceable is an answer (Rebalanceable false),
// any other solver error is returned.
func diagnoseBoundary(c Computation, intensity, within, maxM float64) (BoundaryAnalysis, error) {
	b := BoundaryAnalysis{
		CapacityWithin:  within,
		Intensity:       intensity,
		AchievableRatio: c.Ratio(within),
	}
	// With capacity W the computation sustains R(W) ops per word crossing
	// the boundary, so compute time : I/O time = intensity : R(W).
	switch {
	case nearlyEqual(b.Intensity, b.AchievableRatio, BalanceTolerance):
		b.State = Balanced
	case b.Intensity > b.AchievableRatio:
		// The machine computes faster than the decomposition can feed it.
		b.State = IOBound
	default:
		b.State = ComputeBound
	}
	m, err := c.RequiredMemory(intensity, maxM)
	if err == nil {
		b.BalancedMemory = m
		b.Rebalanceable = true
	} else if !errors.Is(err, ErrNotRebalanceable) {
		return BoundaryAnalysis{}, err
	}
	return b, nil
}

// AnalyzeHierarchy diagnoses a hierarchy against a computation: each
// adjacent-level boundary gets the paper's balance test — intensity C/BW
// against the achievable ratio at the cumulative capacity inside it — and
// the binding boundary (worst I/O-to-compute time ratio) classifies the
// machine. maxM bounds the per-boundary balanced-capacity searches. A
// one-level hierarchy reproduces Analyze on the equivalent flat PE exactly.
func AnalyzeHierarchy(h Hierarchy, c Computation, maxM float64) (HierarchyAnalysis, error) {
	if err := h.Validate(); err != nil {
		return HierarchyAnalysis{}, err
	}
	a := HierarchyAnalysis{
		Computation: c.Name,
		Hierarchy:   h,
		Boundaries:  make([]BoundaryAnalysis, len(h.Levels)),
		Binding:     1,
	}
	worst := math.Inf(-1)
	var within float64
	for i, l := range h.Levels {
		within += l.M // CapacityWithin(i+1), summed in the same order
		b, err := diagnoseBoundary(c, h.BoundaryIntensity(i+1), within, maxM)
		if err != nil {
			return HierarchyAnalysis{}, err
		}
		b.Boundary, b.Level = i+1, l
		a.Boundaries[i] = b
		if score := boundaryScore(b.Intensity, b.AchievableRatio); score > worst {
			worst, a.Binding = score, i+1
		}
	}
	a.State = a.Boundaries[a.Binding-1].State
	return a, nil
}

// BoundaryRebalance is one boundary's share of the rebalancing answer: the
// capacity the region inside it must reach once C/BW has grown by α.
type BoundaryRebalance struct {
	// Boundary is the 1-based boundary index.
	Boundary int
	// Intensity is the post-growth machine ratio α·C/BW the boundary must
	// support.
	Intensity float64
	// RequiredWithin is the minimum cumulative capacity inside the
	// boundary that balances it at the new intensity; 0 when unreachable.
	RequiredWithin float64
	// Rebalanceable is false when no capacity reaches the new intensity.
	Rebalanceable bool
}

// LevelBill is one level's line of the memory bill: its new capacity and
// the growth over what it has.
type LevelBill struct {
	// Level is the current level (name, bandwidth, old capacity).
	Level Level
	// MNew is the level's required new capacity (never below Level.M —
	// rebalancing enlarges memories, it does not shrink them).
	MNew float64
	// Delta is MNew − Level.M ≥ 0.
	Delta float64
}

// HierarchyRebalance answers the paper's central question for a hierarchy:
// after the compute bandwidth grows by α, what is the per-level memory bill
// that restores balance at every boundary?
type HierarchyRebalance struct {
	Computation string
	Alpha       float64
	// Boundaries holds each boundary's required cumulative capacity.
	Boundaries []BoundaryRebalance
	// Bill is the per-level answer: each level's new capacity, chosen so
	// that every boundary's cumulative requirement is met with the least
	// total growth and no level shrinks.
	Bill []LevelBill
	// Binding is the 1-based boundary whose requirement drives the total
	// (the largest RequiredWithin).
	Binding int
	// TotalMemory is the summed new capacity; TotalDelta the summed
	// growth.
	TotalMemory float64
	TotalDelta  float64
	// Rebalanceable is false when any boundary's new intensity is
	// unreachable at any capacity (I/O-bounded computations, paper §3.6);
	// Bill and the totals are then zero.
	Rebalanceable bool
}

// RebalanceHierarchy computes the hierarchy's memory bill for a growth of
// the compute bandwidth by α: each boundary's post-growth intensity α·C/BW
// is inverted through the computation's ratio function (the growth law
// applied at that boundary), the per-boundary cumulative requirements are
// reconciled into per-level capacities (running greedily innermost-out, so
// capacity already bought inside a boundary counts toward it), and the
// binding boundary — the one demanding the most memory — is reported. For a
// one-level hierarchy that was balanced, the bill reduces to the flat
// Computation.Rebalance answer.
func RebalanceHierarchy(h Hierarchy, c Computation, alpha, maxM float64) (HierarchyRebalance, error) {
	if err := h.Validate(); err != nil {
		return HierarchyRebalance{}, err
	}
	if err := checkRebalanceArgs(alpha, h.TotalCapacity()); err != nil {
		return HierarchyRebalance{}, err
	}
	r := HierarchyRebalance{
		Computation:   c.Name,
		Alpha:         alpha,
		Boundaries:    make([]BoundaryRebalance, len(h.Levels)),
		Binding:       1,
		Rebalanceable: true,
	}
	var worst float64
	for i := range h.Levels {
		b := BoundaryRebalance{
			Boundary:  i + 1,
			Intensity: alpha * h.BoundaryIntensity(i+1),
		}
		if math.IsInf(b.Intensity, 0) {
			return HierarchyRebalance{}, fmt.Errorf(
				"model: post-growth intensity α·C/BW = %v·%v overflows at boundary %d",
				alpha, h.BoundaryIntensity(i+1), i+1)
		}
		m, err := c.RequiredMemory(b.Intensity, maxM)
		switch {
		case err == nil:
			b.RequiredWithin = m
			b.Rebalanceable = true
		case errors.Is(err, ErrNotRebalanceable):
			r.Rebalanceable = false
		default:
			return HierarchyRebalance{}, err
		}
		r.Boundaries[i] = b
		if b.RequiredWithin > worst {
			worst, r.Binding = b.RequiredWithin, i+1
		}
	}
	if !r.Rebalanceable {
		return r, nil
	}
	// Reconcile cumulative requirements into per-level capacities: walk
	// innermost-out keeping a running cumulative; each level keeps at
	// least its current capacity and grows only by what the strictest
	// requirement so far still lacks.
	r.Bill = make([]LevelBill, len(h.Levels))
	var cum, need float64
	for i, l := range h.Levels {
		if req := r.Boundaries[i].RequiredWithin; req > need {
			need = req
		}
		mNew := l.M
		if short := need - cum; short > mNew {
			mNew = short
		}
		r.Bill[i] = LevelBill{Level: l, MNew: mNew, Delta: mNew - l.M}
		cum += mNew
		r.TotalMemory += mNew
		r.TotalDelta += mNew - l.M
	}
	return r, nil
}
