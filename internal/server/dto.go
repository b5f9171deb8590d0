package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"balarch/internal/model"
)

// PEDTO is the wire shape of a processing element: computation bandwidth in
// ops/s, I/O bandwidth in words/s, local memory in words (paper Fig. 1).
type PEDTO struct {
	C  float64 `json:"c"`
	IO float64 `json:"io"`
	M  float64 `json:"m"`
}

func (p PEDTO) toModel() model.PE { return model.PE{C: p.C, IO: p.IO, M: p.M} }

// LevelDTO is the wire shape of one memory level: capacity M words filled
// through its outer boundary at BW words/s. A request's `levels` array is
// ordered innermost first; bandwidths must be non-increasing outward
// (violations are 422 non_monotone_hierarchy).
type LevelDTO struct {
	Name string  `json:"name,omitempty"`
	BW   float64 `json:"bw"`
	M    float64 `json:"m"`
}

// BoundaryDTO is one boundary's balance diagnosis inside a hierarchy
// analyze response: the paper's test applied to the region inside the
// boundary (cumulative capacity vs the boundary's bandwidth).
type BoundaryDTO struct {
	Boundary        int     `json:"boundary"`
	Name            string  `json:"name,omitempty"`
	BW              float64 `json:"bw"`
	CapacityWithin  float64 `json:"capacity_within"`
	Intensity       float64 `json:"intensity"`
	AchievableRatio float64 `json:"achievable_ratio"`
	State           string  `json:"state"`
	BalancedMemory  float64 `json:"balanced_memory,omitempty"`
	Rebalanceable   bool    `json:"rebalanceable"`
}

// ComputationDTO names one catalog computation. Grid takes its dimension
// from Dim (default 2); convolution takes its tap count from Taps (default
// 16); every other name ignores both.
type ComputationDTO struct {
	Name string `json:"name"`
	Dim  int    `json:"dim,omitempty"`
	Taps int    `json:"taps,omitempty"`
}

// computationNames lists the accepted ComputationDTO.Name values, for error
// messages and the experiments listing.
var computationNames = []string{
	"convolution", "fft", "grid", "matmul", "matvec",
	"sorting", "spmv", "triangularization", "trisolve",
}

// The catalog entries the resolver hands out, built once: per-request
// resolution is a switch plus a struct copy (the Computation's Law is a
// shared immutable interface value, so copying does not allocate). The
// parameterized entries precompute their defaults; a non-default parameter
// still constructs on demand. The grid table is a builder-func var so Go's
// package initialization orders it before anything that reads it.
var (
	compMatMul          = model.MatrixMultiplication()
	compTriangular      = model.MatrixTriangularization()
	compFFT             = model.FFT()
	compSorting         = model.Sorting()
	compMatVec          = model.MatrixVector()
	compTriSolve        = model.TriangularSolve()
	compSpMV            = model.SparseMatVec()
	compConvolveDefault = model.Convolution(16)
	gridComps           = func() (g [7]model.Computation) {
		for d := 1; d <= 6; d++ {
			g[d] = model.Grid(d)
		}
		return g
	}()
)

// lawDescriptions precomputes GrowthLaw.Describe for every catalog law, so
// the analyze hot path never hits the fmt.Sprintf inside PolynomialLaw's
// non-quadratic case. Laws are small comparable values, so they key a map
// directly; a law outside the table (a non-default convolution, say) falls
// back to Describe.
var lawDescriptions = func() map[model.GrowthLaw]string {
	m := make(map[model.GrowthLaw]string)
	for _, c := range []model.Computation{
		compMatMul, compTriangular, compFFT, compSorting,
		compMatVec, compTriSolve, compSpMV, compConvolveDefault,
	} {
		m[c.Law] = c.Law.Describe()
	}
	for d := 1; d <= 6; d++ {
		m[gridComps[d].Law] = gridComps[d].Law.Describe()
	}
	return m
}()

func lawDescription(law model.GrowthLaw) string {
	if s, ok := lawDescriptions[law]; ok {
		return s
	}
	return law.Describe()
}

// resolveComputation maps a DTO to its model catalog entry.
func resolveComputation(dto ComputationDTO) (model.Computation, *apiError) {
	switch strings.ToLower(dto.Name) {
	case "matmul", "matrix-multiplication":
		return compMatMul, nil
	case "triangularization", "matrix-triangularization":
		return compTriangular, nil
	case "grid":
		d := dto.Dim
		if d == 0 {
			d = 2
		}
		if d < 1 || d > 6 {
			return model.Computation{}, unprocessable("invalid_argument",
				"grid dim %d must be in [1, 6]", d)
		}
		return gridComps[d], nil
	case "fft":
		return compFFT, nil
	case "sorting", "sort":
		return compSorting, nil
	case "matvec", "matrix-vector":
		return compMatVec, nil
	case "trisolve", "triangular-solve":
		return compTriSolve, nil
	case "spmv", "sparse-matvec":
		return compSpMV, nil
	case "convolution", "convolve":
		k := dto.Taps
		if k == 0 {
			k = 16
		}
		if k < 1 || k > 1<<20 {
			return model.Computation{}, unprocessable("invalid_argument",
				"convolution taps %d must be in [1, 2^20]", k)
		}
		if k == 16 {
			return compConvolveDefault, nil
		}
		return model.Convolution(k), nil
	case "":
		return model.Computation{}, unprocessable("invalid_argument",
			"computation.name is required (one of %s)", strings.Join(computationNames, ", "))
	default:
		return model.Computation{}, unprocessable("unknown_computation",
			"unknown computation %q (one of %s)", dto.Name, strings.Join(computationNames, ", "))
	}
}

// --- /v1/analyze ---

// AnalyzeRequest asks: is this PE balanced for this computation, and what
// memory would balance it?
type AnalyzeRequest struct {
	PE          PEDTO          `json:"pe"`
	Computation ComputationDTO `json:"computation"`
	// MaxMemory bounds the numeric balanced-memory search; 0 means the
	// package default of 10^18 words, and any other value must be
	// positive and finite (422 invalid_argument otherwise).
	MaxMemory float64 `json:"max_memory,omitempty"`
	// Levels switches the request to hierarchy analysis: PE.C is the
	// compute rate, the levels (innermost first) replace PE.IO/PE.M
	// (which must be zero), and every adjacent-level boundary gets the
	// balance test. Absent means the flat one-level model.
	Levels []LevelDTO `json:"levels,omitempty"`
}

// AnalyzeResponse is the balance diagnosis. For a hierarchy request the
// flat fields describe the binding boundary (PE is the effective flat PE
// there: the boundary's bandwidth behind the cumulative capacity inside
// it), and Levels/Boundaries/BindingBoundary carry the per-boundary detail.
type AnalyzeResponse struct {
	Computation     string  `json:"computation"`
	Section         string  `json:"section"`
	PE              PEDTO   `json:"pe"`
	Intensity       float64 `json:"intensity"`
	AchievableRatio float64 `json:"achievable_ratio"`
	State           string  `json:"state"`
	BalancedMemory  float64 `json:"balanced_memory,omitempty"`
	Rebalanceable   bool    `json:"rebalanceable"`
	Law             string  `json:"law"`
	// Hierarchy-only fields (absent on flat requests, so one-level wire
	// output is byte-identical to the pre-hierarchy API).
	Levels          []LevelDTO    `json:"levels,omitempty"`
	Boundaries      []BoundaryDTO `json:"boundaries,omitempty"`
	BindingBoundary int           `json:"binding_boundary,omitempty"`
}

// balanceStateName renders a BalanceState as a stable API token (the model
// String()s are prose).
func balanceStateName(s model.BalanceState) string {
	switch s {
	case model.Balanced:
		return "balanced"
	case model.IOBound:
		return "io-bound"
	case model.ComputeBound:
		return "compute-bound"
	default:
		return fmt.Sprintf("state-%d", int(s))
	}
}

// --- /v1/rebalance ---

// RebalanceRequest asks the paper's central question: C/IO grows by Alpha —
// how much memory restores balance?
type RebalanceRequest struct {
	Computation ComputationDTO `json:"computation"`
	Alpha       float64        `json:"alpha"`
	MOld        float64        `json:"m_old"`
	MaxMemory   float64        `json:"max_memory,omitempty"`
	// C and Levels switch the request to hierarchy rebalancing: the
	// compute rate C grows by Alpha and every boundary of the level stack
	// must be rebalanced. MOld must then be zero — the old memories are
	// the levels' capacities.
	C      float64    `json:"c,omitempty"`
	Levels []LevelDTO `json:"levels,omitempty"`
}

// RebalanceBoundaryDTO is one boundary's share of a hierarchy rebalance:
// the cumulative capacity the region inside it must reach at the
// post-growth intensity.
type RebalanceBoundaryDTO struct {
	Boundary       int     `json:"boundary"`
	Intensity      float64 `json:"intensity"`
	RequiredWithin float64 `json:"required_within,omitempty"`
	Rebalanceable  bool    `json:"rebalanceable"`
}

// LevelBillDTO is one level's line of the hierarchy memory bill.
type LevelBillDTO struct {
	Name  string  `json:"name,omitempty"`
	BW    float64 `json:"bw"`
	MOld  float64 `json:"m_old"`
	MNew  float64 `json:"m_new"`
	Delta float64 `json:"delta"`
}

// RebalanceResponse carries both the numeric inversion of the measured
// ratio function and the paper's closed-form law, so clients can see the
// two agree. For a hierarchy request the per-level fields carry the memory
// bill instead of the single m_new.
type RebalanceResponse struct {
	Computation string  `json:"computation"`
	Alpha       float64 `json:"alpha"`
	MOld        float64 `json:"m_old"`
	// Rebalanceable is false for I/O-bounded computations (paper §3.6):
	// MNew and MClosedForm are then omitted.
	Rebalanceable bool    `json:"rebalanceable"`
	MNew          float64 `json:"m_new,omitempty"`
	MClosedForm   float64 `json:"m_closed_form,omitempty"`
	Law           string  `json:"law"`
	// Hierarchy-only fields (absent on flat requests).
	C               float64                `json:"c,omitempty"`
	Boundaries      []RebalanceBoundaryDTO `json:"boundaries,omitempty"`
	LevelBill       []LevelBillDTO         `json:"level_bill,omitempty"`
	BindingBoundary int                    `json:"binding_boundary,omitempty"`
	TotalMemory     float64                `json:"total_memory,omitempty"`
	TotalDelta      float64                `json:"total_delta,omitempty"`
}

// --- /v1/roofline ---

// RooflineRequest samples computations' paths along a PE's roofline across
// a geometric memory sweep [MemLo, MemHi] with the given Step factor.
type RooflineRequest struct {
	PE           PEDTO            `json:"pe"`
	Computations []ComputationDTO `json:"computations"`
	MemLo        float64          `json:"mem_lo"`
	MemHi        float64          `json:"mem_hi"`
	Step         float64          `json:"step,omitempty"`
	// Chart requests the rendered text roofline alongside the samples.
	Chart bool `json:"chart,omitempty"`
	// Levels switches the request to the multi-ridge roofline: PE.C is
	// the compute rate (PE.IO/PE.M must be zero), and [MemLo, MemHi]
	// sweeps the capacity of level SweepLevel (1-based; 0 means the
	// innermost) instead of the flat local memory.
	Levels     []LevelDTO `json:"levels,omitempty"`
	SweepLevel int        `json:"sweep_level,omitempty"`
}

// RooflinePointDTO is one sampled position on a computation's path. On a
// hierarchy path, Memory is the swept level's capacity, Intensity the
// achievable ratio at the binding boundary, and Binding names that
// boundary (0 when the compute roof binds).
type RooflinePointDTO struct {
	Memory       float64 `json:"memory"`
	Intensity    float64 `json:"intensity"`
	Attainable   float64 `json:"attainable"`
	ComputeBound bool    `json:"compute_bound"`
	Binding      int     `json:"binding,omitempty"`
}

// RooflinePathDTO is one computation's sampled path.
type RooflinePathDTO struct {
	Computation string             `json:"computation"`
	Points      []RooflinePointDTO `json:"points"`
}

// RidgeDTO is one boundary's ridge on the multi-ridge roofline.
type RidgeDTO struct {
	Boundary  int     `json:"boundary"`
	BW        float64 `json:"bw"`
	Intensity float64 `json:"intensity"`
}

// RooflineResponse is the evaluated model: the ridge (Kung's balance point)
// plus each computation's path. A hierarchy response reports one ridge per
// boundary in Ridges; RidgeIntensity is then the outermost boundary's ridge
// — the machine's balance point against the outside world.
type RooflineResponse struct {
	PE             PEDTO             `json:"pe"`
	RidgeIntensity float64           `json:"ridge_intensity"`
	Paths          []RooflinePathDTO `json:"paths"`
	Chart          string            `json:"chart,omitempty"`
	// Hierarchy-only fields (absent on flat requests).
	Levels     []LevelDTO `json:"levels,omitempty"`
	Ridges     []RidgeDTO `json:"ridges,omitempty"`
	SweepLevel int        `json:"sweep_level,omitempty"`
}

// --- /v1/sweep ---

// SweepRequest runs one instrumented kernel across a parameter range and
// returns the measured ratio curve. Params is the kernel's memory knob —
// block sides for matmul/lu/fft/strassen, tile sides for grid, run lengths
// for sort, chunk sizes for matvec/trisolve/spmv, tap counts for convolve.
type SweepRequest struct {
	Kernel string `json:"kernel"`
	// N is the problem size (matrix dimension, FFT length, key count…).
	// The sort kernel sizes its input from Params and ignores N.
	N      int   `json:"n,omitempty"`
	Params []int `json:"params"`
	// Dim, Size, Iters configure the grid kernel (Size per side, Iters
	// relaxation iterations); Size replaces N for grids.
	Dim   int `json:"dim,omitempty"`
	Size  int `json:"size,omitempty"`
	Iters int `json:"iters,omitempty"`
	// NNZPerRow configures the spmv kernel.
	NNZPerRow int `json:"nnz_per_row,omitempty"`
	// Seed configures the sort kernel's input permutation.
	Seed int64 `json:"seed,omitempty"`
	// The "hierarchy" kernel sweeps the analytic hierarchy model instead
	// of an instrumented kernel: C is the compute rate, Levels the level
	// stack, Computation the catalog entry whose achievable ratio is
	// evaluated, Vary selects what Params sweeps ("capacity", the
	// default, or "bandwidth"), and Level which level (1-based, default
	// the innermost) takes the swept values. Each point reports the
	// binding boundary's achievable ratio over a synthetic unit of
	// 2^20 words of boundary traffic.
	C           float64         `json:"c,omitempty"`
	Levels      []LevelDTO      `json:"levels,omitempty"`
	Computation *ComputationDTO `json:"computation,omitempty"`
	Vary        string          `json:"vary,omitempty"`
	Level       int             `json:"level,omitempty"`
}

// SweepPointDTO is one measured point of the curve.
type SweepPointDTO struct {
	Memory int     `json:"memory"`
	Ops    uint64  `json:"ops"`
	Reads  uint64  `json:"reads"`
	Writes uint64  `json:"writes"`
	Ratio  float64 `json:"ratio"`
}

// SweepResponse is the measured curve. Cached reports whether the points
// came from the server's sweep memo rather than a fresh kernel run.
type SweepResponse struct {
	Kernel string          `json:"kernel"`
	Points []SweepPointDTO `json:"points"`
	Cached bool            `json:"cached"`
}

// --- /v1/catalog ---

// CatalogEntry describes one computation the API accepts: the wire id to
// put in ComputationDTO.Name, the paper metadata, the growth law, and the
// ratio family, so clients can enumerate instead of hard-coding ids.
type CatalogEntry struct {
	// ID is the ComputationDTO.Name token.
	ID string `json:"id"`
	// Name is the model's human-readable computation name.
	Name        string `json:"name"`
	Section     string `json:"section"`
	Law         string `json:"law"`
	RatioFamily string `json:"ratio_family"`
	IOBounded   bool   `json:"io_bounded"`
	// DefaultDim/DefaultTaps echo the parameter defaults for the ids
	// that take one ("grid", "convolution").
	DefaultDim  int `json:"default_dim,omitempty"`
	DefaultTaps int `json:"default_taps,omitempty"`
}

// CatalogResponse is the GET /v1/catalog body, in id order.
type CatalogResponse struct {
	Computations []CatalogEntry `json:"computations"`
}

// --- /v1/experiments ---

// ExperimentInfo is one row of the GET /v1/experiments listing.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ExperimentsResponse lists the registry.
type ExperimentsResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// ExperimentRunResponse wraps one experiment's report with its verdict.
type ExperimentRunResponse struct {
	Pass   bool            `json:"pass"`
	Result json.RawMessage `json:"result"`
}

// --- /v1/batch ---

// BatchItem is one sub-request of a batch: Op selects the operation
// ("analyze", "rebalance", "roofline", "sweep", "experiment") and Request
// carries that operation's request body. The experiment op's request is
// {"id": "E2"}.
type BatchItem struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// BatchRequest fans its items out across the server's worker pool.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// BatchResult is one item's outcome, in the item's position: the status and
// body it would have received as a standalone request.
type BatchResult struct {
	Op     string          `json:"op"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  *ErrorBody      `json:"error,omitempty"`
}

// BatchResponse preserves request order: Results[i] answers Requests[i]
// whatever order the pool completed them in.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ExperimentRef is the request body of the batch "experiment" op.
type ExperimentRef struct {
	ID string `json:"id"`
}

// --- decoding ---

// decodeStrict parses exactly one JSON value from r into v, rejecting
// unknown fields, trailing garbage, and oversized bodies — malformed input
// is 400, an over-limit body is 413. A declared length over the limit is
// 413 before any byte is read: the decoder would otherwise accept a value
// that ends inside the limit and never reach the limit error.
func decodeStrict(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) *apiError {
	if r.ContentLength > maxBytes {
		return asAPIError(&http.MaxBytesError{Limit: maxBytes})
	}
	return strictDecodeJSON(http.MaxBytesReader(w, r.Body, maxBytes), v)
}

// strictDecodeJSON is the one strict-decoding policy, shared by the
// top-level handlers and /v1/batch items so the two can never drift apart:
// exactly one JSON value, unknown fields rejected, trailing data rejected.
func strictDecodeJSON(rd io.Reader, v any) *apiError {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return badRequest("bad_json", "request body is empty")
		}
		return asDecodeError(err)
	}
	if dec.More() {
		return badRequest("bad_json", "request body has trailing data after the JSON value")
	}
	return nil
}

// asDecodeError distinguishes an over-limit body (413) from malformed JSON
// (400).
func asDecodeError(err error) *apiError {
	if ae := asAPIError(err); ae.Status != http.StatusInternalServerError {
		return ae
	}
	return badRequest("bad_json", "%v", err)
}

// sortedCopy returns a sorted copy of xs, for canonical cache keys.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
