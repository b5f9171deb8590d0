// Package server puts the balance model behind a production-shaped HTTP
// JSON API — balance-as-a-service. A capacity planner asks the same
// questions the paper answers analytically: is this machine balanced for
// this workload (POST /v1/analyze), how much memory does a faster processor
// need (POST /v1/rebalance), what does the roofline look like
// (POST /v1/roofline), what ratio curve does a real kernel measure
// (POST /v1/sweep), and do the paper's claims still reproduce
// (GET|POST /v1/experiments). Heterogeneous requests batch through
// POST /v1/batch, which fans out across an engine.Pool with deterministic
// result ordering; sweeps memoize through an engine.Cache with
// single-flight semantics, so a stampede of identical queries runs the
// kernels once. Work too big for one request goes through the durable
// async surface (POST /v1/jobs and friends, enabled by Options.StoreDir):
// submissions are journaled to a WAL before the ack, executed by queue
// workers through the same cores, and their results stored
// content-addressed so identical requests — across restarts — never
// re-execute (see internal/jobs, internal/store, DESIGN.md §6).
//
// The package is stdlib-only (net/http, log/slog) and exposes its handler
// as a plain http.Handler so embedders can mount it anywhere; cmd/balarchd
// is the thin daemon around it, and balarch.NewServerHandler is the public
// facade. Errors use one typed envelope ({"error": {code, message}}):
// malformed bodies are 400, unknown experiments/series 404, semantically
// invalid requests 422, recovered panics and surprises 500. Middleware
// (recover, logging+metrics, concurrency limiting, per-request timeouts)
// composes as func(http.Handler) http.Handler.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"balarch/internal/engine"
	"balarch/internal/experiments"
	"balarch/internal/jobs"
	"balarch/internal/kernels"
	"balarch/internal/model"
	"balarch/internal/obs"
	"balarch/internal/report"
	"balarch/internal/roofline"
	"balarch/internal/store"
)

// Options configures a Server. The zero value serves with sane defaults:
// GOMAXPROCS sweep parallelism, 1 MiB bodies, 64-item batches, a 60 s
// per-request budget, twice-GOMAXPROCS concurrent requests, and no logging.
type Options struct {
	// Parallelism bounds the engine pools under sweeps, experiment runs,
	// and batch fan-out. ≤ 0 means GOMAXPROCS.
	Parallelism int
	// RequestTimeout is the per-request context budget; 0 means the
	// 60 s default, negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxBatch caps BatchRequest.Requests; 0 means 64.
	MaxBatch int
	// MaxInFlight caps concurrently handled requests; 0 means
	// 2×GOMAXPROCS, negative disables the limiter.
	MaxInFlight int
	// Logger receives structured request and panic logs; nil disables
	// logging (metrics still record). Routine request lines log at
	// Debug; 5xx responses log at Warn regardless of level.
	Logger *slog.Logger

	// TraceSampleEvery tunes request-trace head sampling: one in every N
	// requests arriving without a traceparent is captured into the trace
	// ring. 0 means the default (128); negative disables head sampling —
	// requests carrying a sampled traceparent or the trace=1 opt-in are
	// still captured.
	TraceSampleEvery int

	// Tenants enables API-key tenancy: requests resolve to a tenant via
	// Authorization: Bearer <key>, each tenant gets its own token-bucket
	// rate limit and job byte budget, and /metrics grows a bounded
	// per-tenant section. nil (the default) disables tenancy entirely —
	// no auth, no limiting, byte-identical responses to an untenanted
	// build. The config must be valid (ParseTenantsConfig and
	// LoadTenantsFile only produce valid configs); New panics on a
	// hand-built invalid one, like any other programmer error.
	Tenants *TenantsConfig

	// StoreDir enables the durable async subsystem: the content-addressed
	// result store and the WAL-journaled job queue live under this
	// directory, and the /v1/jobs endpoints come alive. Empty disables
	// jobs (the endpoints answer 404 jobs_disabled).
	StoreDir string
	// JobWorkers is the queue's executor count. 0 means 2; negative
	// means none — the queue accepts and journals but does not execute.
	JobWorkers int
	// MemBudgetBytes caps the summed estimated footprint of queued and
	// running jobs (admission control; over-budget submits are 429).
	// 0 means 256 MiB; negative disables the budget.
	MemBudgetBytes int64
	// JobTTL is how long terminal jobs stay queryable before GC.
	// 0 means 15 minutes; negative keeps them forever.
	JobTTL time.Duration
	// JobTimeout bounds one job's execution. 0 means 10 minutes;
	// negative disables the per-job deadline. Deliberately independent
	// of RequestTimeout: outliving one HTTP request is the point of a
	// job.
	JobTimeout time.Duration

	// NodeID, when set, stamps every response with NodeHeader — how a
	// cluster gateway's clients (and tests) see which member actually
	// served a request. Empty (the default) adds nothing: single-node
	// deployments keep byte-identical response headers.
	NodeID string
}

// NodeHeader is the response header carrying Options.NodeID.
const NodeHeader = "X-Balarch-Node"

const (
	defaultRequestTimeout = 60 * time.Second
	defaultMaxBodyBytes   = 1 << 20
	defaultMaxBatch       = 64
	defaultJobTimeout     = 10 * time.Minute
)

// Server owns the API's long-lived state: the sweep memo shared across
// requests, the metrics, the resolved options, and — when StoreDir is
// set — the content-addressed result store and the durable job queue.
// Create one with New and mount Handler; Close a jobs-enabled server to
// drain its queue.
type Server struct {
	opts             Options
	metrics          *Metrics
	sweeps           *engine.Cache[[]kernels.RatioPoint]
	maxMemoryDefault float64

	// tracer captures request traces; stages is the always-on per-stage
	// latency registry (internal/obs), on the same bucket bounds as every
	// other latency histogram.
	tracer *obs.Tracer
	stages *obs.StageSet

	// draining flips /readyz to 503: set by StartDrain when graceful
	// shutdown begins, so load balancers stop sending new work while
	// in-flight requests finish.
	draining atomic.Bool

	// tenants is the resolved tenancy table (nil when Options.Tenants is
	// nil — the untenanted fast path).
	tenants *tenancy

	// events fans job transitions and engine progress out to SSE
	// subscribers; sseHeartbeat overrides the keep-alive interval
	// (tests shrink it), 0 meaning defaultHeartbeatInterval.
	events       *eventBus
	sseHeartbeat time.Duration

	store   *store.Store
	queue   *jobs.Queue
	jobsErr error // why the async subsystem failed to open, if it did
}

// New resolves opts and returns a ready Server. When opts.StoreDir is
// set, the async subsystem opens under it (replaying the store index and
// the job WAL); an open failure does not fail New — the synchronous API
// must still serve — but the /v1/jobs endpoints report it as 500s, and
// JobsErr exposes it to the daemon for logging.
func New(opts Options) *Server {
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.JobTimeout == 0 {
		opts.JobTimeout = defaultJobTimeout
	}
	s := &Server{
		opts:             opts,
		metrics:          NewMetrics(),
		sweeps:           &engine.Cache[[]kernels.RatioPoint]{},
		maxMemoryDefault: 1e18,
		events:           newEventBus(0),
		tracer:           obs.NewTracer(obs.TracerOptions{SampleEvery: opts.TraceSampleEvery}),
		stages:           new(obs.StageSet),
	}
	if opts.Tenants != nil {
		if err := opts.Tenants.Validate(); err != nil {
			panic(fmt.Sprintf("server: invalid tenants config: %v", err))
		}
		s.tenants = newTenancy(opts.Tenants)
		// Preregister the counter slots before any request can account:
		// the fixed name set is the metrics cardinality bound.
		s.metrics.RegisterTenants(s.tenants.names())
	}
	if opts.StoreDir != "" {
		s.openJobs()
	}
	return s
}

// openJobs brings up the store and the queue under opts.StoreDir.
func (s *Server) openJobs() {
	st, err := store.Open(filepath.Join(s.opts.StoreDir, "store"), store.Options{
		Observe: s.observeStoreOp,
	})
	if err != nil {
		s.jobsErr = err
		return
	}
	jt := s.opts.JobTimeout
	if jt < 0 {
		jt = 0 // jobs.Options treats 0 as "no deadline"
	}
	var (
		tenantBudgets map[string]int64
		tenantWeights map[string]int
	)
	if s.tenants != nil {
		tenantBudgets = s.tenants.jobBudgets()
		tenantWeights = s.tenants.jobWeights()
	}
	q, err := jobs.Open(filepath.Join(s.opts.StoreDir, "jobs"), st, s.jobExecutor(), jobs.Options{
		Workers:        s.opts.JobWorkers,
		MemBudgetBytes: s.opts.MemBudgetBytes,
		TenantBudgets:  tenantBudgets,
		TenantWeights:  tenantWeights,
		TTL:            s.opts.JobTTL,
		JobTimeout:     jt,
		Notify:         s.publishJobTransition,
		Observe:        s.observeJobStage,
	})
	if err != nil {
		st.Close()
		s.jobsErr = err
		return
	}
	s.store, s.queue = st, q
}

// Jobs returns the server's queue (nil when jobs are disabled) — the
// daemon uses it for shutdown accounting, tests for direct inspection.
func (s *Server) Jobs() *jobs.Queue { return s.queue }

// JobsErr reports why the async subsystem failed to open, or nil.
func (s *Server) JobsErr() error { return s.jobsErr }

// Close drains the async subsystem: running jobs get until ctx to
// finish (then they are cut, to be requeued by the next open), queued
// jobs stay journaled, and the store's pack file closes cleanly. A
// jobs-disabled server's Close is a no-op.
func (s *Server) Close(ctx context.Context) error {
	// End every SSE stream first (terminal "dropped" event, reason
	// shutting_down) so no handler goroutine blocks the queue drain
	// waiting on events that will never come.
	s.events.close()
	var err error
	if s.queue != nil {
		err = s.queue.Close(ctx)
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Metrics exposes the server's instrumentation, for embedders and tests.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the full API behind the middleware stack:
// requestid(observe(recover(tenancy(limiter(mux))))), wrapped in the node
// header when Options.NodeID is set. RequestID sits outermost so every
// response — including a limiter 503 or a recovered panic — carries the
// correlation header, and so Observe (the logging, metrics and tracing
// middleware inside it) can log the id. No request copy separates
// Observe from the mux (the mux stamps the matched pattern on the request
// it serves; a copy in between would hide it from the route metrics).
// Recover sits inside Observe so a recovered panic's 500 is still
// logged, counted, and decremented from the in-flight gauge. Health and
// metrics probes bypass the limiter: a saturated server must still
// answer its load balancer.
//
// The per-request budget (Options.RequestTimeout) is applied inside the
// operations whose elapsed time can actually grow — sweep flights
// (runSweep), experiment runs (runExperiment), and batch fan-out — rather
// than by a chain-wide timeout middleware: a context.WithTimeout on every
// request costs several allocations, and the analytic endpoints it would
// cover are microsecond-scale arithmetic with service caps on their loop
// counts (maxRooflinePoints, maxSweepPoints, maxHierarchyLevels).
func (s *Server) Handler() http.Handler {
	limit := s.opts.MaxInFlight
	if limit == 0 {
		limit = 2 * engine.ParallelismFrom(context.Background())
	}
	h := Chain(s.mux(),
		RequestID(),
		Observe(s.opts.Logger, s.metrics, s.tracer),
		Recover(s.opts.Logger, s.metrics),
		s.tenancyMiddleware(),
		LimitConcurrency(limit, "/healthz", "/readyz", "/metrics"),
	)
	if s.opts.NodeID != "" {
		h = nodeIDMiddleware(s.opts.NodeID, h)
	}
	return h
}

// nodeIDMiddleware stamps NodeHeader on every response. Outermost in the
// chain so even limiter rejections and recovered panics carry the node
// identity.
func nodeIDMiddleware(id string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(NodeHeader, id)
		next.ServeHTTP(w, r)
	})
}

// obsStage closes one pipeline stage opened at t0: the duration joins
// the always-on stage histogram, and — when the request is traced — a
// span on its trace. tr is nil for untraced requests; every Trace
// method is nil-safe.
func (s *Server) obsStage(tr *obs.Trace, st obs.Stage, t0 time.Time) {
	d := time.Since(t0)
	s.stages.Observe(st, d)
	tr.Add(st, t0, d)
}

// observeStoreOp is the store's stage hook: disk reads and writes of
// content-addressed results, mapped onto the stage registry.
func (s *Server) observeStoreOp(op string, d time.Duration) {
	switch op {
	case "put":
		s.stages.Observe(obs.StageStorePut, d)
	case "get":
		// A store read on the job path is part of serving a result; it
		// shares the cache_lookup stage with the sweep memo probe.
		s.stages.Observe(obs.StageCacheLookup, d)
	}
}

// observeJobStage is the queue's stage hook (jobs.Options.Observe): it
// runs under the queue's lock, so it must stay a few atomic adds.
func (s *Server) observeJobStage(stage string, d time.Duration) {
	if st, ok := obs.StageByName(stage); ok {
		s.stages.Observe(st, d)
	}
}

// Stages exposes the per-stage latency registry, for embedders and tests.
func (s *Server) Stages() *obs.StageSet { return s.stages }

// StartDrain flips /readyz to 503 draining. The daemon calls it when
// graceful shutdown begins — before http.Server.Shutdown — so a load
// balancer's readiness probe sees the drain while in-flight requests
// (and the liveness probe) still complete normally. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// opBudget applies the per-request budget to an operation that does real
// work. It is the request-scoped counterpart of the old chain-wide timeout
// middleware, paid only where time is actually spent.
func (s *Server) opBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.RequestTimeout)
	}
	return ctx, func() {}
}

// apiRoute is one routed endpoint: the mux pattern, the one-line
// description the GET /v1/ index serves for it, and its handler
// (selected per server, since handlers are methods).
type apiRoute struct {
	pattern string
	desc    string
	handler func(*Server) http.HandlerFunc
}

// apiRoutes is the single source of truth for the API surface: the mux,
// the metrics' preregistered route slots (routePatterns, metrics.go),
// and the machine-readable GET /v1/ index are all generated from it, so
// a route cannot exist in one and be missing from the others.
//
// Note "GET /v1/{$}": on the 1.22 ServeMux a bare "GET /v1/" is a
// subtree pattern that would swallow every unknown GET under /v1/ away
// from the catch-all (breaking the unknown_route envelope); {$}
// restricts it to the exact path.
var apiRoutes = []apiRoute{
	{"GET /healthz", "liveness probe: status, uptime, experiment count",
		func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	{"GET /readyz", "readiness probe: 200 ready, 503 draining during graceful shutdown",
		func(s *Server) http.HandlerFunc { return s.handleReadyz }},
	{"GET /metrics", "instrumentation snapshot: per-route counters, latency histograms, cache and job gauges, per-tenant slices; ?format=prometheus for text exposition",
		func(s *Server) http.HandlerFunc { return s.handleMetrics }},
	{"GET /v1/{$}", "this index: every route, error code, computation id, and experiment id the API serves",
		func(s *Server) http.HandlerFunc { return s.handleAPIIndex }},
	{"GET /v1/catalog", "the computation catalog: wire ids, paper sections, growth laws, ratio families",
		func(s *Server) http.HandlerFunc { return s.handleCatalog }},
	{"POST /v1/analyze", "balance diagnosis for a PE (or memory hierarchy) against a catalog computation",
		func(s *Server) http.HandlerFunc { return jsonHandler(s, s.analyze) }},
	{"POST /v1/rebalance", "memory required to keep a computation balanced after a speedup of alpha",
		func(s *Server) http.HandlerFunc { return jsonHandler(s, s.rebalance) }},
	{"POST /v1/roofline", "roofline model evaluation across computations and a memory sweep",
		func(s *Server) http.HandlerFunc { return jsonHandler(s, s.roofline) }},
	{"POST /v1/sweep", "measured compute/IO ratio curve for a real kernel (memoized, single-flight)",
		func(s *Server) http.HandlerFunc { return stagedHandler(s, s.runSweep) }},
	{"POST /v1/emulation", "Hanlon's emulation analysis: N memory modules behaving as one large memory, vs the ideal flat machine",
		func(s *Server) http.HandlerFunc { return jsonHandler(s, s.emulation) }},
	{"GET /v1/experiments", "the experiment registry: paper reproductions by id",
		func(s *Server) http.HandlerFunc { return s.handleExperimentList }},
	{"POST /v1/experiments/{id}", "run one experiment; ?format=csv|text, ?series=<name>, ?stream=1 for SSE progress",
		func(s *Server) http.HandlerFunc { return s.handleExperimentRun }},
	{"POST /v1/batch", "heterogeneous request fan-out with deterministic result ordering",
		func(s *Server) http.HandlerFunc { return jsonHandler(s, s.batch) }},
	{"POST /v1/jobs", "submit a durable async job (same {op, request} envelope as a batch item)",
		func(s *Server) http.HandlerFunc { return s.handleJobSubmit }},
	{"GET /v1/jobs", "list jobs, newest first; ?state=<state>, ?limit=<n> and ?cursor=<token> paginate",
		func(s *Server) http.HandlerFunc { return s.handleJobList }},
	{"GET /v1/jobs/{id}", "poll one job's status",
		func(s *Server) http.HandlerFunc { return s.handleJobGet }},
	{"GET /v1/jobs/{id}/result", "a done job's stored result, byte-identical to the synchronous response",
		func(s *Server) http.HandlerFunc { return s.handleJobResult }},
	{"GET /v1/jobs/{id}/events", "SSE stream of one job's lifecycle: state, progress, done",
		func(s *Server) http.HandlerFunc { return s.handleJobEvents }},
	{"DELETE /v1/jobs/{id}", "cancel a live job or forget a terminal one",
		func(s *Server) http.HandlerFunc { return s.handleJobDelete }},
}

// mux routes the API surface from the apiRoutes table.
func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range apiRoutes {
		mux.HandleFunc(rt.pattern, rt.handler(s))
	}
	// The catch-all keeps the error envelope on every non-2xx: unknown
	// paths AND wrong methods on known paths land here (trading away the
	// mux's native 405), so the message names both possibilities.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, notFound("unknown_route",
			"no route matches %s %s (unknown path, or wrong method for a known one)",
			r.Method, r.URL.Path))
	})
	return mux
}

// --- API index ---

// APIRouteInfo is one route in the GET /v1/ index.
type APIRouteInfo struct {
	Method      string `json:"method"`
	Path        string `json:"path"`
	Description string `json:"description"`
}

// APIIndexResponse is the GET /v1/ body: the API surface as data —
// every route, every error code the envelope can carry, every catalog
// computation id, every experiment id. Generated from the same tables
// the server routes and resolves with, so it cannot advertise what the
// API would reject (or omit what it serves).
type APIIndexResponse struct {
	Service      string         `json:"service"`
	Routes       []APIRouteInfo `json:"routes"`
	ErrorCodes   []string       `json:"error_codes"`
	Computations []string       `json:"computations"`
	Experiments  []string       `json:"experiments"`
}

// handleAPIIndex serves GET /v1/ (exact path). The listing is static —
// encoded once and replayed, like the catalog.
var (
	apiIndexOnce  sync.Once
	apiIndexBytes []byte
)

func (s *Server) handleAPIIndex(w http.ResponseWriter, _ *http.Request) {
	apiIndexOnce.Do(func() {
		data, err := encodeJSONBody(apiIndexResponse())
		if err != nil {
			panic(err) // static data over marshalable types; cannot fail
		}
		apiIndexBytes = data
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(apiIndexBytes)
}

// apiIndexRoutes is apiRoutes, copied by init(): apiIndexResponse
// ranging apiRoutes directly would close an initialization cycle
// (apiRoutes → handleAPIIndex → apiIndexResponse → apiRoutes); init
// functions run after variable initialization, outside that graph.
var apiIndexRoutes []apiRoute

func init() { apiIndexRoutes = apiRoutes }

// apiIndexResponse assembles the index from the route table, the error
// code registry, the computation resolver's id list, and the experiment
// registry.
func apiIndexResponse() APIIndexResponse {
	resp := APIIndexResponse{
		Service:      "balarch",
		Routes:       []APIRouteInfo{},
		ErrorCodes:   errorCodes(),
		Computations: append([]string{}, computationNames...),
		Experiments:  []string{},
	}
	for _, rt := range apiIndexRoutes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		// "{$}" is mux syntax for "this exact path"; the wire path is
		// what a client actually requests.
		path = strings.TrimSuffix(path, "{$}")
		resp.Routes = append(resp.Routes, APIRouteInfo{
			Method: method, Path: path, Description: rt.desc,
		})
	}
	for _, e := range experiments.Registry() {
		resp.Experiments = append(resp.Experiments, e.ID)
	}
	return resp
}

// jsonHandler adapts a decode→core→encode operation: strict-decodes Req,
// runs the core, writes the response or the error envelope, recording each
// step as its pipeline stage (decode, compute, encode). The same core
// functions serve /v1/batch, so standalone and batched requests cannot
// drift apart.
func jsonHandler[Req any, Resp any](s *Server, core func(context.Context, *Req) (Resp, *apiError)) http.HandlerFunc {
	return stagedHandler(s, func(ctx context.Context, req *Req) (Resp, *apiError) {
		t0 := time.Now()
		resp, apiErr := core(ctx, req)
		s.obsStage(obs.TraceFrom(ctx), obs.StageCompute, t0)
		return resp, apiErr
	})
}

// stagedHandler is jsonHandler for a core that records its own stages
// between decode and encode: runSweep splits its work into the
// cache_lookup probe and the kernel flight, so one compute span around it
// would count the flight twice.
func stagedHandler[Req any, Resp any](s *Server, core func(context.Context, *Req) (Resp, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.TraceFrom(r.Context())
		t0 := time.Now()
		var req Req
		apiErr := decodeStrict(w, r, s.opts.MaxBodyBytes, &req)
		s.obsStage(tr, obs.StageDecode, t0)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		resp, apiErr := core(r.Context(), &req)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		t0 = time.Now()
		writeJSON(w, resp)
		s.obsStage(tr, obs.StageEncode, t0)
	}
}

// sweepContext attaches the server's parallelism hint and span observer
// for the engine pools beneath kernel sweeps and experiment runs: every
// pool job's elapsed time lands in the compute stage histogram, so the
// stage profile sees per-point kernel costs even on detached
// single-flight sweeps (the observer touches only the server-lifetime
// StageSet — never a pooled per-request trace record).
func (s *Server) sweepContext(ctx context.Context) context.Context {
	ctx = engine.WithParallelism(ctx, s.opts.Parallelism)
	return engine.WithSpanObserver(ctx, s.observePoolJob)
}

// observePoolJob feeds one engine pool job into the compute stage. A
// memoized sweep never reaches its pool, so every job observed here did
// real kernel work.
func (s *Server) observePoolJob(elapsed time.Duration) {
	s.stages.Observe(obs.StageCompute, elapsed)
}

// --- core operations (shared by handlers and /v1/batch) ---

// analyze diagnoses a machine against a catalog computation. A flat PE is
// the one-level stack, so both request shapes run the same hierarchy
// analysis: the flat response fields describe the binding boundary (as the
// effective flat PE there), and only a request with levels gets the
// per-boundary detail.
func (s *Server) analyze(_ context.Context, req *AnalyzeRequest) (*AnalyzeResponse, *apiError) {
	comp, apiErr := resolveComputation(req.Computation)
	if apiErr != nil {
		return nil, apiErr
	}
	h, apiErr := resolveMachine(req.PE, req.Levels)
	if apiErr != nil {
		return nil, apiErr
	}
	a, err := model.AnalyzeHierarchy(h, comp, s.maxMemory(req.MaxMemory))
	if err != nil {
		return nil, unprocessable("invalid_argument", "%v", err)
	}
	bind := a.BindingBoundary()
	resp := &AnalyzeResponse{
		Computation:     comp.Name,
		Section:         comp.Section,
		PE:              PEDTO{C: h.C, IO: bind.Level.BW, M: bind.CapacityWithin},
		Intensity:       bind.Intensity,
		AchievableRatio: bind.AchievableRatio,
		State:           balanceStateName(a.State),
		BalancedMemory:  bind.BalancedMemory,
		Rebalanceable:   bind.Rebalanceable,
		Law:             lawDescription(comp.Law),
	}
	if len(req.Levels) > 0 {
		resp.Levels = req.Levels
		resp.BindingBoundary = a.Binding
		resp.Boundaries = boundaryDTOs(a.Boundaries)
	}
	return resp, nil
}

// maxMemory resolves a request's max_memory: absent (0) means the server
// default; anything else goes to the model, which rejects a cap that is
// not positive and finite.
func (s *Server) maxMemory(req float64) float64 {
	if req == 0 {
		return s.maxMemoryDefault
	}
	return req
}

// rebalance answers the memory-growth question numerically and in closed
// form. An I/O-bounded computation is a valid question with the answer
// "impossible" (200, rebalanceable=false), not an error.
func (s *Server) rebalance(_ context.Context, req *RebalanceRequest) (*RebalanceResponse, *apiError) {
	comp, apiErr := resolveComputation(req.Computation)
	if apiErr != nil {
		return nil, apiErr
	}
	maxM := s.maxMemory(req.MaxMemory)
	if len(req.Levels) > 0 {
		return s.rebalanceHierarchy(req, comp, maxM)
	}
	if req.C != 0 {
		return nil, unprocessable("invalid_argument",
			"c is a hierarchy field: it needs a levels array (flat rebalance takes only alpha and m_old)")
	}
	resp := &RebalanceResponse{
		Computation: comp.Name,
		Alpha:       req.Alpha,
		MOld:        req.MOld,
		Law:         lawDescription(comp.Law),
	}
	mNew, err := comp.Rebalance(req.Alpha, req.MOld, maxM)
	switch {
	case err == nil:
		resp.Rebalanceable = true
		resp.MNew = mNew
		if cf, cfErr := comp.RebalanceClosedForm(req.Alpha, req.MOld); cfErr == nil {
			resp.MClosedForm = cf
		}
	case errors.Is(err, model.ErrNotRebalanceable):
		resp.Rebalanceable = false
	default:
		// Argument validation: alpha/m_old out of range.
		return nil, unprocessable("invalid_argument", "%v", err)
	}
	return resp, nil
}

// roofline evaluates the roofline model across the requested computations
// and memory sweep. A flat PE is the one-level stack, so both request
// shapes sample the same multi-ridge paths; only a request with levels gets
// the ridges, the sweep level and per-point binding boundaries, and the
// chart is drawn single-ridge for a flat PE.
func (s *Server) roofline(_ context.Context, req *RooflineRequest) (*RooflineResponse, *apiError) {
	if len(req.Computations) == 0 {
		return nil, unprocessable("invalid_argument", "computations must list at least one entry")
	}
	comps := make([]model.Computation, len(req.Computations))
	for i, dto := range req.Computations {
		comp, apiErr := resolveComputation(dto)
		if apiErr != nil {
			return nil, apiErr
		}
		comps[i] = comp
	}
	leveled := len(req.Levels) > 0
	if !leveled && req.SweepLevel != 0 {
		return nil, unprocessable("invalid_argument",
			"sweep_level is a hierarchy field: it needs a levels array")
	}
	h, apiErr := resolveMachine(req.PE, req.Levels)
	if apiErr != nil {
		return nil, apiErr
	}
	m := &roofline.HierarchyModel{H: h}
	level := req.SweepLevel
	if level == 0 {
		level = 1
	}
	lo, hi, step := req.MemLo, req.MemHi, req.Step
	if step == 0 {
		step = 4
	}
	if apiErr := checkRooflinePoints(lo, hi, step); apiErr != nil {
		return nil, apiErr
	}
	ridges := m.Ridges()
	resp := &RooflineResponse{PE: req.PE, RidgeIntensity: ridges[len(ridges)-1].Intensity}
	if leveled {
		resp.Levels, resp.SweepLevel = req.Levels, level
		resp.Ridges = make([]RidgeDTO, len(ridges))
		for i, r := range ridges {
			resp.Ridges[i] = RidgeDTO{Boundary: r.Boundary, BW: r.Bandwidth, Intensity: r.Intensity}
		}
	}
	for _, comp := range comps {
		pts, err := m.Path(comp, level, lo, hi, step)
		if err != nil {
			return nil, unprocessable("invalid_argument", "%v", err)
		}
		path := RooflinePathDTO{Computation: comp.Name, Points: make([]RooflinePointDTO, len(pts))}
		for i, p := range pts {
			path.Points[i] = RooflinePointDTO{
				Memory:       p.Memory,
				Intensity:    p.Intensity,
				Attainable:   p.Attainable,
				ComputeBound: p.ComputeBound,
			}
			if leveled {
				path.Points[i].Binding = p.Binding
			}
		}
		resp.Paths = append(resp.Paths, path)
	}
	if req.Chart {
		chart, err := "", error(nil)
		if leveled {
			chart, err = m.Chart(comps)
		} else {
			chart, err = (&roofline.Model{PE: req.PE.toModel()}).Chart(comps, lo, hi)
		}
		if err != nil {
			return nil, unprocessable("invalid_argument", "%v", err)
		}
		resp.Chart = chart
	}
	return resp, nil
}

// maxRooflinePoints caps a roofline path's geometric sweep. With the
// chain-wide timeout gone from Handler, a step barely above 1 would
// otherwise make the sampling loop the one unbounded computation in the
// analytic endpoints.
const maxRooflinePoints = 4096

// checkRooflinePoints rejects sweeps whose geometric point count exceeds
// the service cap. Parameters roofline.Path itself rejects pass through so
// its canonical validation errors are preserved.
func checkRooflinePoints(lo, hi, step float64) *apiError {
	if !(lo > 0) || !(hi >= lo) || !(step > 1) {
		return nil
	}
	if n := math.Log(hi/lo) / math.Log(step); !(n < maxRooflinePoints) {
		return unprocessable("invalid_argument",
			"memory sweep [%g, %g] at step %g is ~%.0f points, service cap is %d",
			lo, hi, step, n, maxRooflinePoints)
	}
	return nil
}

// --- catalog ---

// handleCatalog serves GET /v1/catalog: the computation catalog with wire
// ids, paper metadata, growth laws, and ratio families, so clients can
// enumerate the accepted ComputationDTO.Name values instead of hard-coding
// them. The listing is static and in id order — so its bytes are encoded
// once and replayed (lazily, via sync.Once, so package initialization
// order cannot bite).
var (
	catalogOnce  sync.Once
	catalogBytes []byte
)

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	catalogOnce.Do(func() {
		data, err := encodeJSONBody(catalogResponse())
		if err != nil {
			panic(err) // static data over marshalable types; cannot fail
		}
		catalogBytes = data
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(catalogBytes)
}

// catalogResponse builds the listing from the same resolver the request
// path uses, so the catalog can never advertise an id the API rejects.
func catalogResponse() CatalogResponse {
	resp := CatalogResponse{Computations: []CatalogEntry{}}
	for _, id := range computationNames {
		dto := ComputationDTO{Name: id}
		comp, apiErr := resolveComputation(dto)
		if apiErr != nil {
			continue // unreachable: computationNames is the resolver's own list
		}
		e := CatalogEntry{
			ID:          id,
			Name:        comp.Name,
			Section:     comp.Section,
			Law:         comp.Law.Describe(),
			RatioFamily: ratioFamily(comp),
			IOBounded:   comp.IOBounded,
		}
		switch id {
		case "grid":
			e.DefaultDim = 2
		case "convolution":
			e.DefaultTaps = 16
		}
		resp.Computations = append(resp.Computations, e)
	}
	return resp
}

// ratioFamily names the asymptotic family of a computation's achievable
// ratio, in the paper's Θ-notation.
func ratioFamily(c model.Computation) string {
	switch law := c.Law.(type) {
	case model.PolynomialLaw:
		if law.Degree == 2 {
			return "Θ(√M)"
		}
		return fmt.Sprintf("Θ(M^(1/%g))", law.Degree)
	case model.ExponentialLaw:
		return "Θ(log₂M)"
	default:
		return "Θ(1)"
	}
}

// --- experiments ---

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	resp := ExperimentsResponse{Experiments: []ExperimentInfo{}}
	for _, e := range experiments.Registry() {
		resp.Experiments = append(resp.Experiments, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, resp)
}

// handleExperimentRun executes one registry entry under the request's
// context — a dropped connection or the per-request timeout aborts the
// experiment's sweeps mid-flight. Output formats: JSON report (default),
// ?format=text for the terminal rendering, ?format=csv for every series
// (404 via ErrNoSeries when the result has none), ?series=<name> for one.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "1" {
		s.streamExperiment(w, r)
		return
	}
	res, apiErr := s.runExperiment(r.Context(), r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	q := r.URL.Query()
	switch {
	case q.Get("series") != "":
		w.Header().Set("Content-Type", "text/csv")
		if err := res.WriteCSV(w, q.Get("series")); err != nil {
			writeError(w, asAPIError(err))
		}
	case q.Get("format") == "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := res.WriteAllCSV(w); err != nil {
			writeError(w, asAPIError(err))
		}
	case q.Get("format") == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = res.Render(w)
	default:
		data, err := res.JSON()
		if err != nil {
			writeError(w, internalError(err))
			return
		}
		writeJSON(w, ExperimentRunResponse{Pass: res.Pass(), Result: data})
	}
}

// runExperiment is the core experiment executor, shared with /v1/batch.
// The per-request budget applies here (not in the middleware chain): an
// experiment replays whole paper figures and is the API's longest
// synchronous operation.
func (s *Server) runExperiment(ctx context.Context, id string) (*report.Result, *apiError) {
	exp, err := experiments.Get(id)
	if err != nil {
		return nil, notFound("unknown_experiment", "%v", err)
	}
	ctx, cancel := s.opBudget(ctx)
	defer cancel()
	res, err := exp.Run(s.sweepContext(ctx))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Retry-After rides every 429/503 (the unified throttling
			// contract): a deadline-killed run may well fit on a retry
			// once the server is less loaded.
			return nil, &apiError{Status: http.StatusServiceUnavailable,
				Body:              ErrorBody{"cancelled", err.Error()},
				RetryAfterSeconds: 1}
		}
		return nil, internalError(err)
	}
	return res, nil
}

// --- health & metrics ---

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Experiments   int     `json:"experiments"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Experiments:   len(experiments.Registry()),
	})
}

// ReadyResponse is the GET /readyz body on a ready server.
type ReadyResponse struct {
	Status string `json:"status"`
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// a live server can be unready. It reports 503 draining once StartDrain
// has run (graceful shutdown), so load balancers stop routing new work.
// WAL replay happens synchronously inside New before the handler is
// mounted, so a server that answers at all has already replayed its
// journal — readiness-after-replay holds by construction.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, &apiError{Status: http.StatusServiceUnavailable,
			Body:              ErrorBody{"draining", "server is draining; not accepting new work"},
			RetryAfterSeconds: 1})
		return
	}
	writeJSON(w, ReadyResponse{Status: "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The query is parsed only when one is present, so the plain GET
	// /metrics path — whose JSON body is pinned byte-for-byte by
	// TestMetricsSchemaPinned — is untouched.
	if r.URL.RawQuery != "" && r.URL.Query().Get("format") == "prometheus" {
		s.handleMetricsProm(w)
		return
	}
	snap := s.collect()
	writeJSON(w, &snap)
}
