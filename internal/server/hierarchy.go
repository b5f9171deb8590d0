package server

// Machine descriptions: a request names its machine either as a flat PE
// (pe{c, io, m}) or as a compute rate over a level stack (pe.c + levels).
// One resolver maps both onto model.Hierarchy — the flat PE is the
// one-level stack — and owns the typed 422s (non_monotone_hierarchy for
// mis-ordered bandwidths), so analyze, roofline, rebalance, emulation and
// the hierarchy sweep cannot drift apart. Flat responses stay
// byte-identical to the pre-hierarchy wire shapes: the cores set the
// hierarchy-only fields only when the request carries levels.

import (
	"context"
	"errors"
	"math"
	"strings"

	"balarch/internal/kernels"
	"balarch/internal/model"
	"balarch/internal/opcount"
)

// maxHierarchyLevels caps a request's level stack — a service limit, not a
// model one.
const maxHierarchyLevels = 8

// resolveHierarchy maps a (compute rate, levels) pair onto the validated
// model type. Monotonicity violations get their own code so clients can
// tell "your machine description is mis-ordered" from garden-variety bad
// arguments.
func resolveHierarchy(c float64, levels []LevelDTO) (model.Hierarchy, *apiError) {
	if len(levels) > maxHierarchyLevels {
		return model.Hierarchy{}, unprocessable("invalid_argument",
			"levels lists %d entries, service cap is %d", len(levels), maxHierarchyLevels)
	}
	h := model.Hierarchy{C: c, Levels: make([]model.Level, len(levels))}
	for i, l := range levels {
		h.Levels[i] = model.Level{Name: l.Name, BW: l.BW, M: l.M}
	}
	if err := h.Validate(); err != nil {
		if errors.Is(err, model.ErrNonMonotoneHierarchy) {
			return model.Hierarchy{}, unprocessable("non_monotone_hierarchy", "%v", err)
		}
		return model.Hierarchy{}, unprocessable("invalid_argument", "%v", err)
	}
	return h, nil
}

// resolveMachine maps either machine description onto the validated model
// type. The flat branch keeps PE.Validate's messages (a valid PE is a valid
// one-level stack); the levels branch rejects mixed descriptions before
// resolving the stack.
func resolveMachine(pe PEDTO, levels []LevelDTO) (model.Hierarchy, *apiError) {
	if len(levels) == 0 {
		if err := pe.toModel().Validate(); err != nil {
			return model.Hierarchy{}, unprocessable("invalid_argument", "%v", err)
		}
		return model.FromPE(pe.toModel()), nil
	}
	if apiErr := requireNoFlatFields(pe); apiErr != nil {
		return model.Hierarchy{}, apiErr
	}
	return resolveHierarchy(pe.C, levels)
}

// boundaryDTOs renders a hierarchy analysis's per-boundary verdicts.
func boundaryDTOs(bs []model.BoundaryAnalysis) []BoundaryDTO {
	out := make([]BoundaryDTO, len(bs))
	for i, b := range bs {
		out[i] = BoundaryDTO{
			Boundary:        b.Boundary,
			Name:            b.Level.Name,
			BW:              b.Level.BW,
			CapacityWithin:  b.CapacityWithin,
			Intensity:       b.Intensity,
			AchievableRatio: b.AchievableRatio,
			State:           balanceStateName(b.State),
			BalancedMemory:  b.BalancedMemory,
			Rebalanceable:   b.Rebalanceable,
		}
	}
	return out
}

// requireNoFlatFields rejects requests that mix the hierarchy and flat
// machine descriptions: with `levels` present the compute rate lives in
// pe.c and the levels carry the bandwidths and capacities.
func requireNoFlatFields(pe PEDTO) *apiError {
	if pe.IO != 0 || pe.M != 0 {
		return unprocessable("invalid_argument",
			"levels and pe.io/pe.m are mutually exclusive: with a hierarchy, put the compute rate in pe.c and the bandwidths/capacities in levels")
	}
	return nil
}

// rebalanceHierarchy is the hierarchy branch of the rebalance core: the
// compute rate grows by α and the per-level memory bill comes back.
func (s *Server) rebalanceHierarchy(req *RebalanceRequest, comp model.Computation, maxM float64) (*RebalanceResponse, *apiError) {
	if req.MOld != 0 {
		return nil, unprocessable("invalid_argument",
			"levels and m_old are mutually exclusive: the old memories are the levels' capacities")
	}
	h, apiErr := resolveHierarchy(req.C, req.Levels)
	if apiErr != nil {
		return nil, apiErr
	}
	r, err := model.RebalanceHierarchy(h, comp, req.Alpha, maxM)
	if err != nil {
		return nil, unprocessable("invalid_argument", "%v", err)
	}
	resp := &RebalanceResponse{
		Computation:     comp.Name,
		Alpha:           req.Alpha,
		Rebalanceable:   r.Rebalanceable,
		Law:             lawDescription(comp.Law),
		C:               req.C,
		Boundaries:      make([]RebalanceBoundaryDTO, len(r.Boundaries)),
		BindingBoundary: r.Binding,
		TotalMemory:     r.TotalMemory,
		TotalDelta:      r.TotalDelta,
	}
	for i, b := range r.Boundaries {
		resp.Boundaries[i] = RebalanceBoundaryDTO{
			Boundary:       b.Boundary,
			Intensity:      b.Intensity,
			RequiredWithin: b.RequiredWithin,
			Rebalanceable:  b.Rebalanceable,
		}
	}
	for _, l := range r.Bill {
		resp.LevelBill = append(resp.LevelBill, LevelBillDTO{
			Name:  l.Level.Name,
			BW:    l.Level.BW,
			MOld:  l.Level.M,
			MNew:  l.MNew,
			Delta: l.Delta,
		})
	}
	return resp, nil
}

// --- the "hierarchy" sweep kernel ---

// The analytic hierarchy sweep rides the same machinery as the measured
// kernels: validated here, fanned out point-per-param on the engine pool by
// kernels.Sweep, memoized under a canonical cache key. Each point rewrites
// the chosen level's capacity (or boundary bandwidth) to the param value
// and reports the binding boundary's achievable ratio, encoded over a
// synthetic unit of 2^20 words of boundary traffic so RatioPoint.Ratio()
// reproduces it.

// hierarchyRatioScale is the synthetic I/O unit: ratios round to ~1e-6.
const hierarchyRatioScale = 1 << 20

// varyKind normalizes SweepRequest.Vary.
func varyKind(v string) (string, *apiError) {
	switch v {
	case "", "capacity":
		return "capacity", nil
	case "bandwidth", "bw":
		return "bandwidth", nil
	default:
		return "", unprocessable("invalid_argument",
			"vary %q must be \"capacity\" or \"bandwidth\"", v)
	}
}

// hierarchyAt rewrites the swept knob to value and revalidates (a bandwidth
// sweep can break monotonicity mid-stack).
func hierarchyAt(h model.Hierarchy, vary string, level int, value float64) (model.Hierarchy, error) {
	out := h
	out.Levels = append([]model.Level(nil), h.Levels...)
	if vary == "bandwidth" {
		out.Levels[level-1].BW = value
	} else {
		out.Levels[level-1].M = value
	}
	return out, out.Validate()
}

// validateHierarchySweep is the registry validate hook for the "hierarchy"
// kernel: the stack must resolve, the computation must exist, and every
// swept value must yield a valid (monotone) hierarchy — the whole request
// is judged up front so a half-executed sweep can never 422.
func validateHierarchySweep(req *SweepRequest) *apiError {
	if req.Computation == nil {
		return unprocessable("invalid_argument",
			"the hierarchy sweep needs a computation (one of %s)",
			strings.Join(computationNames, ", "))
	}
	if _, apiErr := resolveComputation(*req.Computation); apiErr != nil {
		return apiErr
	}
	h, apiErr := resolveHierarchy(req.C, req.Levels)
	if apiErr != nil {
		return apiErr
	}
	vary, apiErr := varyKind(req.Vary)
	if apiErr != nil {
		return apiErr
	}
	level := req.Level
	if level == 0 {
		level = 1
	}
	if level < 1 || level > h.Depth() {
		return unprocessable("invalid_argument",
			"sweep level %d outside hierarchy depth %d", level, h.Depth())
	}
	for _, p := range req.Params {
		if _, err := hierarchyAt(h, vary, level, float64(p)); err != nil {
			if errors.Is(err, model.ErrNonMonotoneHierarchy) {
				return unprocessable("non_monotone_hierarchy",
					"swept value %d: %v", p, err)
			}
			return unprocessable("invalid_argument", "swept value %d: %v", p, err)
		}
	}
	return nil
}

// runHierarchySweep evaluates the analytic model at each param through
// kernels.Sweep — the same parallel driver every measured kernel rides, so
// the engine's parallelism hint, ordering guarantee, and cancellation all
// apply. The binding boundary's achievable ratio is recorded over the
// synthetic traffic unit so RatioPoint.Ratio() reproduces it to ~1e-6.
func runHierarchySweep(ctx context.Context, req *SweepRequest) ([]kernels.RatioPoint, error) {
	comp, apiErr := resolveComputation(*req.Computation)
	if apiErr != nil {
		return nil, apiErr
	}
	h, apiErr := resolveHierarchy(req.C, req.Levels)
	if apiErr != nil {
		return nil, apiErr
	}
	vary, apiErr := varyKind(req.Vary)
	if apiErr != nil {
		return nil, apiErr
	}
	level := req.Level
	if level == 0 {
		level = 1
	}
	return kernels.Sweep(ctx, req.Params,
		func(_ context.Context, p int) (kernels.RatioPoint, error) {
			hp, err := hierarchyAt(h, vary, level, float64(p))
			if err != nil {
				return kernels.RatioPoint{}, err
			}
			a, err := model.AnalyzeHierarchy(hp, comp, defaultMaxMemory)
			if err != nil {
				return kernels.RatioPoint{}, err
			}
			r := a.BindingBoundary().AchievableRatio
			if r < 0 || math.IsNaN(r) {
				r = 0
			}
			if r > 1e12 {
				// Clamp so the synthetic-totals encoding below cannot
				// overflow uint64; no physical ratio lives up here.
				r = 1e12
			}
			return kernels.RatioPoint{Memory: p, Totals: opcount.Totals{
				Ops:   uint64(math.Round(r * hierarchyRatioScale)),
				Reads: hierarchyRatioScale,
			}}, nil
		})
}

// defaultMaxMemory mirrors Server.maxMemoryDefault for the registry hooks,
// which have no Server receiver.
const defaultMaxMemory = 1e18
