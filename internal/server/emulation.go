package server

// POST /v1/emulation: Hanlon's memory-emulation question from the paper —
// can N small memories behave as one large one? The emulated machine is a
// two-level hierarchy (each module's local memory inside its own boundary,
// the other N-1 modules reachable across the interconnect), analyzed by the
// same AnalyzeHierarchy machinery the /v1/analyze levels branch uses. The
// ideal machine is a flat PE with one N·m-word memory at full module
// bandwidth. Efficiency compares achieved utilization — the fraction of
// peak compute each machine sustains at its binding boundary: 1.0 means
// the emulation is free (both machines compute bound, or one module), and
// below that the price is the module port (working sets re-fetched at the
// module's intensity, not the aggregate's) or the interconnect,
// whichever binds.

import (
	"context"

	"balarch/internal/model"
)

// maxEmulationModules caps the module count — a service limit; the model
// itself is closed-form in N.
const maxEmulationModules = 1 << 20

// EmulationRequest asks whether N memory modules of module_m words each,
// locally reachable at module_bw words/s and remotely at network_bw
// words/s (default: module_bw, a perfect interconnect), emulate one
// N·module_m-word memory for the given computation.
type EmulationRequest struct {
	C           float64        `json:"c"`
	Computation ComputationDTO `json:"computation"`
	Modules     int            `json:"modules"`
	ModuleM     float64        `json:"module_m"`
	ModuleBW    float64        `json:"module_bw"`
	NetworkBW   float64        `json:"network_bw,omitempty"`
	MaxMemory   float64        `json:"max_memory,omitempty"`
}

// EmulationSideDTO is one machine's balance diagnosis — the emulated
// hierarchy's binding boundary, or the ideal flat machine.
type EmulationSideDTO struct {
	State           string  `json:"state"`
	Intensity       float64 `json:"intensity"`
	AchievableRatio float64 `json:"achievable_ratio"`
	// Utilization is the fraction of peak compute the machine sustains:
	// 1 when compute bound, R/intensity when the binding boundary's I/O
	// cannot feed the PE.
	Utilization    float64 `json:"utilization"`
	BalancedMemory float64 `json:"balanced_memory,omitempty"`
	Rebalanceable  bool    `json:"rebalanceable"`
}

// EmulationResponse compares the emulated machine against the ideal one.
// Boundaries carries the emulated hierarchy's per-boundary detail (boundary
// 1: inside one module; boundary 2: the whole emulated memory behind the
// interconnect), in the same shape the analyze hierarchy branch uses.
type EmulationResponse struct {
	Computation      string           `json:"computation"`
	Law              string           `json:"law"`
	Modules          int              `json:"modules"`
	ModuleM          float64          `json:"module_m"`
	ModuleBW         float64          `json:"module_bw"`
	NetworkBW        float64          `json:"network_bw"`
	EmulatedCapacity float64          `json:"emulated_capacity"`
	Emulated         EmulationSideDTO `json:"emulated"`
	Ideal            EmulationSideDTO `json:"ideal"`
	Boundaries       []BoundaryDTO    `json:"boundaries"`
	BindingBoundary  int              `json:"binding_boundary"`
	Efficiency       float64          `json:"efficiency"`
}

// emulation is the core operation behind POST /v1/emulation.
func (s *Server) emulation(_ context.Context, req *EmulationRequest) (*EmulationResponse, *apiError) {
	comp, apiErr := resolveComputation(req.Computation)
	if apiErr != nil {
		return nil, apiErr
	}
	if req.Modules < 1 {
		return nil, unprocessable("invalid_argument",
			"modules must be at least 1, got %d", req.Modules)
	}
	if req.Modules > maxEmulationModules {
		return nil, unprocessable("invalid_argument",
			"modules %d exceeds service cap %d", req.Modules, maxEmulationModules)
	}
	netBW := req.NetworkBW
	if netBW == 0 {
		netBW = req.ModuleBW
	}
	maxM := s.maxMemory(req.MaxMemory)
	// The emulated machine, innermost first: one module's memory behind
	// its local port, the other N-1 modules' memory behind the network. A
	// single module degenerates to the flat machine (one level). The
	// resolver owns all machine-description validation, including the 422
	// non_monotone_hierarchy when network_bw exceeds module_bw.
	levels := []LevelDTO{{Name: "module", BW: req.ModuleBW, M: req.ModuleM}}
	if req.Modules > 1 {
		levels = append(levels, LevelDTO{
			Name: "network", BW: netBW, M: float64(req.Modules-1) * req.ModuleM,
		})
	}
	h, apiErr := resolveHierarchy(req.C, levels)
	if apiErr != nil {
		return nil, apiErr
	}
	a, err := model.AnalyzeHierarchy(h, comp, maxM)
	if err != nil {
		return nil, unprocessable("invalid_argument", "%v", err)
	}
	ideal, err := model.Analyze(model.PE{
		C: req.C, IO: req.ModuleBW, M: float64(req.Modules) * req.ModuleM,
	}, comp, maxM)
	if err != nil {
		return nil, unprocessable("invalid_argument", "%v", err)
	}
	bind := a.BindingBoundary()
	emUtil := utilization(bind.Intensity, bind.AchievableRatio)
	idealUtil := utilization(ideal.Intensity, ideal.AchievableRatio)
	resp := &EmulationResponse{
		Computation:      comp.Name,
		Law:              lawDescription(comp.Law),
		Modules:          req.Modules,
		ModuleM:          req.ModuleM,
		ModuleBW:         req.ModuleBW,
		NetworkBW:        netBW,
		EmulatedCapacity: float64(req.Modules) * req.ModuleM,
		Emulated: EmulationSideDTO{
			State:           balanceStateName(a.State),
			Intensity:       bind.Intensity,
			AchievableRatio: bind.AchievableRatio,
			Utilization:     emUtil,
			BalancedMemory:  bind.BalancedMemory,
			Rebalanceable:   bind.Rebalanceable,
		},
		Ideal: EmulationSideDTO{
			State:           balanceStateName(ideal.State),
			Intensity:       ideal.Intensity,
			AchievableRatio: ideal.AchievableRatio,
			Utilization:     idealUtil,
			BalancedMemory:  ideal.BalancedMemory,
			Rebalanceable:   ideal.Rebalanceable,
		},
		Boundaries:      boundaryDTOs(a.Boundaries),
		BindingBoundary: a.Binding,
	}
	if idealUtil > 0 {
		resp.Efficiency = emUtil / idealUtil
		if resp.Efficiency > 1 {
			// The emulated machine repeats the ideal's boundary (same
			// capacity, bandwidth no higher), so it can never beat it;
			// clamp stray float drift only.
			resp.Efficiency = 1
		}
	}
	return resp, nil
}

// utilization is the fraction of peak compute a boundary sustains:
// compute time : I/O time = intensity : R, so an I/O-bound boundary
// (intensity > R) runs the PE at R/intensity of peak, a compute-bound
// one at 1.
func utilization(intensity, ratio float64) float64 {
	if intensity <= 0 || ratio >= intensity {
		return 1
	}
	if ratio <= 0 {
		return 0
	}
	return ratio / intensity
}
