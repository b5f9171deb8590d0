// Package experiments reproduces every table and figure of the paper's
// evaluation as executable experiments E1–E12 plus the X1–X4 ablations and
// extensions (see DESIGN.md for the index). Each experiment measures its
// claim on the instrumented kernels, the pebble game, or the array
// simulator, fits the measured curves, and emits a report.Result with
// pass/fail claims, rendered tables, and text figures. Experiments are
// independent, so RunAll fans them out across an engine.Pool; results come
// back in id order regardless of parallelism.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"balarch/internal/engine"
	"balarch/internal/fit"
	"balarch/internal/kernels"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// Experiment is a runnable reproduction of one paper table or figure. Run
// honors ctx cancellation: a cancelled context aborts the experiment's
// sweeps and returns the context's error.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context) (*report.Result, error)
}

// The registry is built exactly once; every Registry/Get call after the
// first is an allocation-free read guarded by regMu (Register, used by
// tests and extensions, is the only writer — and it replaces the slice
// rather than mutating it, so snapshots handed out earlier stay valid).
var (
	registryOnce sync.Once
	regMu        sync.RWMutex
	registry     []Experiment
	registryByID map[string]Experiment
)

func buildRegistry() {
	registry = []Experiment{
		{"E1", "summary of §3: memory growth laws for all computations", RunE01Summary},
		{"E2", "matrix multiplication ratio and α² law", RunE02MatMul},
		{"E3", "matrix triangularization ratio and α² law", RunE03Triangularization},
		{"E4", "d-dimensional grid ratio and α^d law", RunE04Grid},
		{"E5", "FFT ratio, M^α law, and Fig. 2 decomposition", RunE05FFT},
		{"E6", "sorting ratio and M^α law", RunE06Sorting},
		{"E7", "I/O-bounded computations cannot be rebalanced", RunE07IOBound},
		{"E8", "1-D array: per-PE memory grows linearly with p (Fig. 3)", RunE08Array1D},
		{"E9", "2-D mesh: per-PE memory constant for matmul, growing for 3-D grid (Fig. 4)", RunE09Mesh2D},
		{"E10", "Warp machine case study (§5)", RunE10Warp},
		{"E11", "pebble-game optimality of the blocked schedules", RunE11Pebble},
		{"E12", "cache simulation: decomposition, not just memory, buys the ratio", RunE12Cache},
		{"X1", "ablation: mesh host attachment (perimeter vs corner)", RunX1CornerMesh},
		{"X2", "ablation: serial vs double-buffered execution", RunX2Overlap},
		{"X3", "ablation: replacement policy vs decomposition", RunX3PolicyVsSchedule},
		{"X4", "extension: communication-avoiding Strassen's balance law", RunX4Strassen},
	}
	sort.Slice(registry, func(i, j int) bool { return registry[i].ID < registry[j].ID })
	registryByID = make(map[string]Experiment, len(registry))
	for _, e := range registry {
		registryByID[e.ID] = e
	}
}

// Registry returns all experiments in id order. The returned slice is the
// package's cached registry: callers must not modify it.
func Registry() []Experiment {
	registryOnce.Do(buildRegistry)
	regMu.RLock()
	defer regMu.RUnlock()
	return registry
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	registryOnce.Do(buildRegistry)
	regMu.RLock()
	e, ok := registryByID[id]
	regMu.RUnlock()
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e, nil
}

// Register adds an experiment to the registry — the seam tests use to
// inject failing or erroring experiments, and embedders can use for custom
// reproductions. It returns a function that removes the entry again. Ids
// must be new and non-empty, and Run must be non-nil.
func Register(e Experiment) (remove func(), err error) {
	registryOnce.Do(buildRegistry)
	if e.ID == "" || e.Run == nil {
		return nil, fmt.Errorf("experiments: Register needs an ID and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registryByID[e.ID]; dup {
		return nil, fmt.Errorf("experiments: experiment %q already registered", e.ID)
	}
	next := make([]Experiment, 0, len(registry)+1)
	next = append(next, registry...)
	next = append(next, e)
	sort.Slice(next, func(i, j int) bool { return next[i].ID < next[j].ID })
	registry = next
	registryByID[e.ID] = e
	return func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registryByID, e.ID)
		kept := make([]Experiment, 0, len(registry))
		for _, x := range registry {
			if x.ID != e.ID {
				kept = append(kept, x)
			}
		}
		registry = kept
	}, nil
}

// RunAll runs every registered experiment on an engine.Pool with the given
// parallelism (≤ 0 means GOMAXPROCS) and returns the results in id order —
// byte-identical to a serial run, whatever the worker count. The
// parallelism also propagates down to the kernel sweep pools via the
// context, so parallelism 1 is a genuinely serial run of the whole tree.
// pass reports whether every claim of every experiment passed. The first
// experiment error cancels the rest.
func RunAll(ctx context.Context, parallelism int) (results []*report.Result, pass bool, err error) {
	reg := Registry()
	ctx = engine.WithParallelism(ctx, parallelism)
	ctx = withSweepCache(ctx)
	jobs := make([]engine.Job[*report.Result], len(reg))
	for i, e := range reg {
		e := e
		jobs[i] = engine.Job[*report.Result]{Run: func(ctx context.Context) (*report.Result, error) {
			res, err := e.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			return res, nil
		}}
	}
	pool := engine.Pool[*report.Result]{Parallelism: parallelism}
	results, err = pool.Run(ctx, jobs)
	if err != nil {
		return nil, false, err
	}
	pass = true
	for _, r := range results {
		if !r.Pass() {
			pass = false
		}
	}
	return results, pass, nil
}

// withSweepCache gives one suite run a shared memo for the kernel sweeps
// that several experiments repeat (E1 re-measures the curves E2–E7 measure).
// The cache is scoped to the context so separate RunAll calls — and
// benchmark iterations — stay independent.
func withSweepCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, sweepCacheKey{}, &engine.Cache[[]kernels.RatioPoint]{})
}

type sweepCacheKey struct{}

// cachedSweep memoizes fn under key in the context's sweep cache; without a
// cache on the context it just runs fn. Concurrent experiments asking for
// the same sweep share one in-flight computation.
func cachedSweep(ctx context.Context, key string, fn func() ([]kernels.RatioPoint, error)) ([]kernels.RatioPoint, error) {
	cache, ok := ctx.Value(sweepCacheKey{}).(*engine.Cache[[]kernels.RatioPoint])
	if !ok {
		return fn()
	}
	pts, err, _ := cache.Do(key, fn)
	return pts, err
}

// --- shared helpers ---

// ratioXY splits ratio points into fit inputs.
func ratioXY(pts []kernels.RatioPoint) (xs, ys []float64) {
	for _, p := range pts {
		xs = append(xs, float64(p.Memory))
		ys = append(ys, p.Ratio())
	}
	return xs, ys
}

// ratioSeries converts ratio points into an exportable series.
func ratioSeries(name string, pts []kernels.RatioPoint) report.Series {
	s := report.Series{Name: name, Columns: []string{"memory_words", "ccomp", "cio", "ratio"}}
	for _, p := range pts {
		s.Rows = append(s.Rows, []float64{
			float64(p.Memory), float64(p.Totals.Ops), float64(p.Totals.Cio()), p.Ratio(),
		})
	}
	return s
}

// ratioTable renders ratio points as a text table.
func ratioTable(pts []kernels.RatioPoint) string {
	tb := textplot.NewTable("M (words)", "Ccomp", "Cio", "Ccomp/Cio")
	for _, p := range pts {
		tb.AddRow(p.Memory, p.Totals.Ops, p.Totals.Cio(), p.Ratio())
	}
	return tb.String()
}

// ratioChart renders a log-log ratio chart.
func ratioChart(title string, pts []kernels.RatioPoint) string {
	ch := textplot.NewChart(title)
	ch.LogX, ch.LogY = true, true
	ch.XLabel, ch.YLabel = "local memory M (words)", "Ccomp/Cio"
	xs, ys := ratioXY(pts)
	ch.Add(textplot.Series{Name: "measured", X: xs, Y: ys})
	return ch.String()
}

// invertFit returns the memory at which the fitted model reaches α times its
// value at mOld — the measured answer to the paper's rebalancing question.
// Returns +Inf for the constant family (rebalancing impossible).
func invertFit(sel fit.Selection, alpha, mOld float64) float64 {
	switch sel.Best {
	case fit.ModelPower:
		// c·m^e scaled by α ⇒ m × α^(1/e).
		return mOld * math.Pow(alpha, 1/sel.Power.Exponent)
	case fit.ModelLog:
		// s·log2 m + b scaled by α ⇒ log2 m' = α·log2 m + (α-1)b/s.
		l := alpha*sel.Log.Eval(mOld) - sel.Log.Offset
		return math.Pow(2, l/sel.Log.Scale)
	default:
		return math.Inf(1)
	}
}

// within reports whether got lies in [want·lo, want·hi].
func within(got, want, lo, hi float64) bool {
	return got >= want*lo && got <= want*hi
}

func f2(v float64) string { return fmt.Sprintf("%.3g", v) }
