package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"balarch/internal/kernels"
	"balarch/internal/obs"
)

// Service-level caps on sweep work, so one request cannot monopolize the
// daemon. Violations are 422s: the request is well-formed, just too big for
// the service.
const (
	maxSweepPoints  = 64      // points per sweep
	maxSweepN       = 1 << 22 // problem size for count-only kernels
	maxSortMemory   = 2048    // sort executes for real: n = m² keys per point
	maxGridDim      = 4
	maxGridCells    = 1 << 24 // size^dim
	maxGridIters    = 64
	maxSpMVDensity  = 1 << 10 // nnz per row
	maxConvolveTaps = 1 << 16

	// Work caps, bounding a point's (or request's) work rather than its
	// nominal problem size. Sort executes for real, so its *total* work
	// across a request's points is what must be bounded. The blocked and
	// grid kernels are count-only (the closed-form kernels.Count*, at most
	// O(n) a point), so their caps bound no real work; they stay because
	// the 422s they return are part of the wire. Found by the DTO fuzz
	// targets, kept as service contracts.
	maxBlocksPerSide = 4096    // (n/param)² ≤ ~16.8M blocks per point
	maxSortKeysTotal = 1 << 23 // Σ params² keys actually sorted per request
	maxGridWorkTotal = 1 << 27 // cells × iters × points per request
)

// sweepKernel is one row of the sweep registry: how to validate a request
// for this kernel, what a job running it holds in memory, and how to run
// it.
type sweepKernel struct {
	validate func(*SweepRequest) *apiError
	// cost is a validated request's working set in bytes, the sweep job's
	// admission footprint beyond jobBaseCost (DESIGN.md §6).
	cost func(*SweepRequest) int64
	run  func(ctx context.Context, req *SweepRequest) ([]kernels.RatioPoint, error)
}

// sweepKernels maps SweepRequest.Kernel to its implementation. Every entry
// runs on the engine pool via kernels.Sweep, so the server's parallelism
// hint (carried in ctx) bounds the fan-out.
var sweepKernels = map[string]sweepKernel{
	"matmul": {
		validate: needBlockedN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.MatMulRatioSweep(ctx, r.N, r.Params)
		},
	},
	"lu": {
		validate: needBlockedN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.LURatioSweep(ctx, r.N, r.Params)
		},
	},
	"fft": {
		validate: needN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.FFTRatioSweep(ctx, r.N, r.Params)
		},
	},
	"strassen": {
		validate: needN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.StrassenRatioSweep(ctx, r.N, r.Params)
		},
	},
	"matvec": {
		validate: needN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.MatVecRatioSweep(ctx, r.N, r.Params)
		},
	},
	"trisolve": {
		validate: needBlockedN,
		cost:     nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.TriSolveRatioSweep(ctx, r.N, r.Params)
		},
	},
	"convolve": {
		validate: func(r *SweepRequest) *apiError {
			if err := needN(r); err != nil {
				return err
			}
			for _, k := range r.Params {
				if k > maxConvolveTaps {
					return unprocessable("invalid_argument",
						"convolve taps %d exceeds the service cap %d", k, maxConvolveTaps)
				}
			}
			return nil
		},
		cost: nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.ConvolveRatioSweep(ctx, r.N, r.Params)
		},
	},
	"spmv": {
		validate: func(r *SweepRequest) *apiError {
			if err := needN(r); err != nil {
				return err
			}
			if r.NNZPerRow <= 0 || r.NNZPerRow > maxSpMVDensity {
				return unprocessable("invalid_argument",
					"spmv nnz_per_row %d must be in [1, %d]", r.NNZPerRow, maxSpMVDensity)
			}
			return nil
		},
		cost: nWords,
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.SpMVRatioSweep(ctx, r.N, r.NNZPerRow, r.Params)
		},
	},
	"sort": {
		// Sort generates and actually sorts m² keys per point, so it gets
		// the tightest caps: per-point memory and total keys per request.
		validate: func(r *SweepRequest) *apiError {
			var keys int64
			for _, m := range r.Params {
				if m > maxSortMemory {
					return unprocessable("invalid_argument",
						"sort memory %d exceeds the service cap %d (each point sorts m² keys)",
						m, maxSortMemory)
				}
				keys += int64(m) * int64(m)
			}
			if keys > maxSortKeysTotal {
				return unprocessable("invalid_argument",
					"sort request totals %d keys across its points, service cap is %d",
					keys, maxSortKeysTotal)
			}
			return nil
		},
		// m² eight-byte keys sorted per point.
		cost: func(r *SweepRequest) int64 {
			var keys int64
			for _, m := range r.Params {
				keys += int64(m) * int64(m)
			}
			return keys * wordBytes
		},
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.SortRatioSweep(ctx, r.Params, r.Seed)
		},
	},
	"hierarchy": {
		// The analytic multi-level sweep (internal/server/hierarchy.go):
		// params sweep a chosen level's capacity or boundary bandwidth
		// through the hierarchy balance model instead of an instrumented
		// kernel. No N cap applies — each point is O(depth) arithmetic.
		// Priced like the counting kernels, by n, which the analytic
		// sweep accepts and ignores.
		validate: validateHierarchySweep,
		cost:     nWords,
		run:      runHierarchySweep,
	},
	"grid": {
		validate: func(r *SweepRequest) *apiError {
			if r.Dim < 1 || r.Dim > maxGridDim {
				return unprocessable("invalid_argument",
					"grid dim %d must be in [1, %d]", r.Dim, maxGridDim)
			}
			if r.Size <= 0 {
				return unprocessable("invalid_argument", "grid size %d must be positive", r.Size)
			}
			cells := 1
			for d := 0; d < r.Dim; d++ {
				if cells > maxGridCells/r.Size {
					return unprocessable("invalid_argument",
						"grid size %d^%d exceeds the service cap of %d cells",
						r.Size, r.Dim, maxGridCells)
				}
				cells *= r.Size
			}
			if r.Iters <= 0 || r.Iters > maxGridIters {
				return unprocessable("invalid_argument",
					"grid iters %d must be in [1, %d]", r.Iters, maxGridIters)
			}
			if work := int64(cells) * int64(r.Iters) * int64(len(r.Params)); work > maxGridWorkTotal {
				return unprocessable("invalid_argument",
					"grid request totals %d cell-updates (%d cells × %d iters × %d points), service cap is %d",
					work, cells, r.Iters, len(r.Params), maxGridWorkTotal)
			}
			return nil
		},
		// size^dim eight-byte cells relaxed.
		cost: func(r *SweepRequest) int64 {
			cells := int64(1)
			for d := 0; d < r.Dim; d++ {
				cells *= int64(r.Size)
			}
			return cells * wordBytes
		},
		run: func(ctx context.Context, r *SweepRequest) ([]kernels.RatioPoint, error) {
			return kernels.GridRatioSweep(ctx, r.Dim, r.Size, r.Iters, r.Params)
		},
	},
}

// nWords prices the counting kernels: they touch O(n) words.
func nWords(r *SweepRequest) int64 { return int64(r.N) * wordBytes }

// needN is the common validation for kernels parameterized by one problem
// size.
func needN(r *SweepRequest) *apiError {
	if r.N <= 0 || r.N > maxSweepN {
		return unprocessable("invalid_argument",
			"%s n=%d must be in [1, %d]", r.Kernel, r.N, maxSweepN)
	}
	return nil
}

// needBlockedN extends needN for the square blocked kernels, whose counting
// loops cost O((n/param)²) per point: a tiny block against a huge n is a
// ~10¹³-iteration request the n cap alone would admit.
func needBlockedN(r *SweepRequest) *apiError {
	if err := needN(r); err != nil {
		return err
	}
	for _, b := range r.Params {
		if b > 0 && r.N/b > maxBlocksPerSide {
			return unprocessable("invalid_argument",
				"%s n=%d with block %d means %d blocks per side, service cap is %d",
				r.Kernel, r.N, b, r.N/b, maxBlocksPerSide)
		}
	}
	return nil
}

// sweepKernelNames lists the registry for error messages.
func sweepKernelNames() string {
	names := make([]string, 0, len(sweepKernels))
	for name := range sweepKernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// validateSweep resolves and validates a sweep request.
func validateSweep(req *SweepRequest) (sweepKernel, *apiError) {
	k, ok := sweepKernels[strings.ToLower(req.Kernel)]
	if !ok {
		if req.Kernel == "" {
			return sweepKernel{}, unprocessable("invalid_argument",
				"kernel is required (one of %s)", sweepKernelNames())
		}
		return sweepKernel{}, unprocessable("unknown_kernel",
			"unknown kernel %q (one of %s)", req.Kernel, sweepKernelNames())
	}
	if name := strings.ToLower(req.Kernel); name != "hierarchy" &&
		(len(req.Levels) > 0 || req.C != 0 || req.Computation != nil || req.Vary != "" || req.Level != 0) {
		// The same mutual-exclusion contract analyze/rebalance/roofline
		// enforce: silently running a flat kernel for a request that
		// described a hierarchy would answer a question nobody asked.
		return sweepKernel{}, unprocessable("invalid_argument",
			"c/levels/computation/vary/level are hierarchy-sweep fields: they need kernel \"hierarchy\", not %q", req.Kernel)
	}
	if len(req.Params) == 0 {
		return sweepKernel{}, unprocessable("invalid_argument", "params must list at least one point")
	}
	if len(req.Params) > maxSweepPoints {
		return sweepKernel{}, unprocessable("invalid_argument",
			"params lists %d points, service cap is %d", len(req.Params), maxSweepPoints)
	}
	for _, p := range req.Params {
		if p <= 0 {
			return sweepKernel{}, unprocessable("invalid_argument",
				"params must be positive, got %d", p)
		}
	}
	if err := k.validate(req); err != nil {
		return sweepKernel{}, err
	}
	return k, nil
}

// sweepCacheKey canonicalizes a validated request into the memo key: two
// requests that measure the same curve — whatever the order of their params
// — share one entry. Fields a kernel ignores are normalized out so they
// cannot split the key space. sortedParams is the caller's sorted copy of
// req.Params; the key reads e.g. "sweep/<kernel>/n=0/.../params=[64 128]".
func sweepCacheKey(req *SweepRequest, sortedParams []int) string {
	kernel := strings.ToLower(req.Kernel)
	n, dim, size, iters, nnz, seed := req.N, 0, 0, 0, 0, int64(0)
	switch kernel {
	case "grid":
		n, dim, size, iters = 0, req.Dim, req.Size, req.Iters
	case "sort":
		n, seed = 0, req.Seed
	case "spmv":
		nnz = req.NNZPerRow
	case "hierarchy":
		n = 0
	}
	key := fmt.Sprintf("sweep/%s/n=%d/dim=%d/size=%d/iters=%d/nnz=%d/seed=%d/params=%v",
		kernel, n, dim, size, iters, nnz, seed, sortedParams)
	if kernel == "hierarchy" {
		// The analytic sweep's whole machine description is key material;
		// the suffix rides only on this kernel so every other key stays
		// exactly as before. Levels and computation are JSON-encoded, not
		// %v-joined: client-controlled level names could otherwise forge a
		// colliding key and read another machine's cached points.
		level := req.Level
		if level == 0 {
			level = 1
		}
		vary, _ := varyKind(req.Vary)
		comp := ComputationDTO{}
		if req.Computation != nil {
			comp = *req.Computation
		}
		lv, _ := json.Marshal(req.Levels)
		cp, _ := json.Marshal(comp)
		key += fmt.Sprintf("/c=%v/vary=%s/level=%d/levels=%s/comp=%s",
			req.C, vary, level, lv, cp)
	}
	return key
}

// maxSweepCacheEntries bounds the sweep memo so a long-lived daemon
// cannot be grown without limit by clients iterating parameter values:
// at the cap the memo is flushed wholesale (epoch eviction — in-flight
// computations finish unharmed, their callers still get values).
const maxSweepCacheEntries = 1024

// runSweep executes (or recalls) a sweep and shapes the response. The
// engine cache gives concurrent identical requests single-flight semantics:
// under a stampede of equal sweeps the kernels run once. The sweep always
// executes in canonical (sorted) parameter order and the response is
// reordered to the requester's params, so the same request returns the same
// point order whichever param permutation populated the memo.
func (s *Server) runSweep(ctx context.Context, req *SweepRequest) (*SweepResponse, *apiError) {
	k, apiErr := validateSweep(req)
	if apiErr != nil {
		return nil, apiErr
	}
	params := sortedCopy(req.Params)
	key := sweepCacheKey(req, params)

	// The memoized case first: a plain map probe, no canonical copy, no
	// flight context, no single-flight bookkeeping.
	tr := obs.TraceFrom(ctx)
	t0 := time.Now()
	if pts, ok := s.sweeps.Lookup(key); ok {
		s.metrics.CacheHit()
		s.obsStage(tr, obs.StageCacheLookup, t0)
		return shapeSweepResponse(req, params, pts, true), nil
	}
	s.obsStage(tr, obs.StageCacheLookup, t0)

	canonical := *req
	canonical.Params = params
	// The flight is detached from the initiating request's cancellation:
	// a joiner must not fail because the first caller disconnected. The
	// server's own request budget bounds it instead, and the parallelism
	// hint (a context value) survives the detach.
	fctx := context.WithoutCancel(s.sweepContext(ctx))
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(fctx, s.opts.RequestTimeout)
		defer cancel()
	}
	if s.sweeps.Len() >= maxSweepCacheEntries {
		s.sweeps.Reset()
	}
	t0 = time.Now()
	pts, err, hit := s.sweeps.Do(key, func() ([]kernels.RatioPoint, error) {
		return k.run(fctx, &canonical)
	})
	// The flight duration is a trace span only: the per-point kernel
	// costs already stream into the compute stage histogram through the
	// pool observer (sweepContext), and a joiner's wait is not compute.
	tr.Add(obs.StageCompute, t0, time.Since(t0))
	if hit {
		s.metrics.CacheHit()
	} else {
		s.metrics.CacheMiss()
	}
	if err != nil {
		return nil, asSweepError(err)
	}
	return shapeSweepResponse(req, params, pts, hit), nil
}

// shapeSweepResponse builds the response: pts[i] measures sortedParams[i],
// and the answer comes back in the request's own param order via binary
// search — duplicate params land on the same measured point.
func shapeSweepResponse(req *SweepRequest, sortedParams []int, pts []kernels.RatioPoint, cached bool) *SweepResponse {
	resp := &SweepResponse{
		Kernel: strings.ToLower(req.Kernel),
		Cached: cached,
		Points: make([]SweepPointDTO, len(req.Params)),
	}
	for i, param := range req.Params {
		p := pts[sort.SearchInts(sortedParams, param)]
		resp.Points[i] = SweepPointDTO{
			Memory: p.Memory,
			Ops:    p.Totals.Ops,
			Reads:  p.Totals.Reads,
			Writes: p.Totals.Writes,
			Ratio:  p.Ratio(),
		}
	}
	return resp
}

// asSweepError maps a kernel error: context death is the client's timeout
// or disconnect (503), anything else is a spec the kernel rejected (422) —
// the count-only kernels have no other failure mode.
func asSweepError(err error) *apiError {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &apiError{Status: http.StatusServiceUnavailable,
			Body: ErrorBody{"cancelled", err.Error()}}
	}
	return unprocessable("invalid_argument", "%v", err)
}
