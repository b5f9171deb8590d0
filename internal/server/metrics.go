package server

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"balarch/internal/obs"
)

// routePatterns is the fixed universe of metrics keys: every mux pattern
// (method-qualified, matching what routeLabel reports) plus the two
// collapse tokens for requests the mux never matched. It is derived from
// the apiRoutes table (server.go) — the same single source the mux and
// the GET /v1/ API index are built from — so the three cannot drift.
// NewMetrics builds a histogram per entry once, so Observe is a map
// probe plus a few atomic adds — no lock, no allocation.
var routePatterns = func() []string {
	patterns := make([]string, 0, len(apiRoutes)+2)
	for _, rt := range apiRoutes {
		patterns = append(patterns, rt.pattern)
	}
	return append(patterns, "(unmatched)", "(unknown_route)")
}()

// Metrics is the server's instrumentation: per-route request counts and
// latency histograms, status classes, the sweep-cache hit rate, and an
// in-flight gauge. All methods are safe for concurrent use and lock-free on
// the request path; reads take a snapshot.
//
// The route table is built once (one histogram per routePatterns entry)
// and never changes: routeLabel can only report a routePatterns entry,
// and any other key counts as "(unknown_route)". Status classes are plain
// atomics. The global histogram and request
// total are the route histograms merged at snapshot time instead of being
// maintained as separate counters on the hot path.
type Metrics struct {
	start time.Time

	routes map[string]*obs.Hist // one per routePatterns entry; immutable

	statuses [10]atomic.Int64 // completed requests by status/100, clamped

	inFlight    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	panics      atomic.Int64

	// tenants is the per-tenant counter table, preregistered once from
	// the tenants config (RegisterTenants) and immutable after — the
	// cardinality bound: a request can only ever account against a
	// configured name, never grow the map. nil on an untenanted server,
	// and then the snapshot omits the whole section.
	tenants map[string]*tenantSlot
}

// tenantSlot is one tenant's counters. Plain atomics: the tenancy
// middleware touches these on every tenanted request.
type tenantSlot struct {
	requests    atomic.Int64
	rateLimited atomic.Int64
	overBudget  atomic.Int64
}

// NewMetrics returns ready-to-use instrumentation with every route's
// histogram allocated.
func NewMetrics() *Metrics {
	m := &Metrics{start: time.Now(), routes: make(map[string]*obs.Hist, len(routePatterns))}
	for _, p := range routePatterns {
		m.routes[p] = new(obs.Hist)
	}
	return m
}

// RegisterTenants preregisters one counter slot per tenant name. Called
// once, before the handler serves (New does it from the tenants config);
// the table never grows afterwards.
func (m *Metrics) RegisterTenants(names []string) {
	m.tenants = make(map[string]*tenantSlot, len(names))
	for _, n := range names {
		m.tenants[n] = &tenantSlot{}
	}
}

// TenantRequest counts one resolved request against its tenant.
func (m *Metrics) TenantRequest(name string) {
	if s := m.tenants[name]; s != nil {
		s.requests.Add(1)
	}
}

// TenantRateLimited counts one bucket refusal (429 rate_limited).
func (m *Metrics) TenantRateLimited(name string) {
	if s := m.tenants[name]; s != nil {
		s.rateLimited.Add(1)
	}
}

// TenantOverBudget counts one job-admission refusal (429 over_budget).
func (m *Metrics) TenantOverBudget(name string) {
	if s := m.tenants[name]; s != nil {
		s.overBudget.Add(1)
	}
}

// Observe records one completed request: its route, response status, and
// latency.
func (m *Metrics) Observe(route string, status int, elapsed time.Duration) {
	h := m.routes[route]
	if h == nil {
		h = m.routes["(unknown_route)"]
	}
	h.Observe(elapsed)
	m.statuses[min(max(status/100, 0), 9)].Add(1)
}

// IncInFlight/DecInFlight maintain the in-flight request gauge.
func (m *Metrics) IncInFlight() { m.inFlight.Add(1) }

// DecInFlight decrements the in-flight request gauge.
func (m *Metrics) DecInFlight() { m.inFlight.Add(-1) }

// CacheHit records a sweep served from the memo.
func (m *Metrics) CacheHit() { m.cacheHits.Add(1) }

// CacheMiss records a sweep that ran the kernels.
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// Panic records a request recovered by the recover middleware.
func (m *Metrics) Panic() { m.panics.Add(1) }

// HistogramBucket is one bar of the latency histogram in the snapshot.
type HistogramBucket struct {
	// LeSeconds is the bucket's inclusive upper bound in seconds; the
	// overflow bucket reports -1.
	LeSeconds float64 `json:"le_seconds"`
	Count     int64   `json:"count"`
}

// RouteLatency is one route's latency summary in the snapshot. The
// quantiles are histogram estimates: each is the upper bound of the bucket
// containing the quantile (the load generator estimates its own quantiles
// the same way on the same buckets, so the two agree bucket-for-bucket);
// an observation beyond the last bucket reports the route's exact maximum.
type RouteLatency struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// Snapshot is the value behind GET /metrics: Server.collect fills it,
// the JSON handler encodes it and appendProm renders it, and the cluster
// rollup merges the nodes' values (Merge). The JSON field set is pinned
// by TestMetricsSchemaPinned: additions are fine, but renaming or removing
// a key breaks the load generator's cross-check and must be deliberate.
type Snapshot struct {
	UptimeSeconds  float64                 `json:"uptime_seconds"`
	InFlight       int64                   `json:"in_flight"`
	Requests       map[string]int64        `json:"requests_total"`
	RouteLatency   map[string]RouteLatency `json:"route_latency"`
	StatusClasses  map[string]int64        `json:"responses_by_status_class"`
	Panics         int64                   `json:"panics_recovered"`
	LatencyMean    float64                 `json:"latency_mean_seconds"`
	LatencyBuckets []HistogramBucket       `json:"latency_histogram"`
	CacheHits      int64                   `json:"sweep_cache_hits"`
	CacheMisses    int64                   `json:"sweep_cache_misses"`
	CacheHitRate   float64                 `json:"sweep_cache_hit_rate"`

	// The async subsystem's gauges (internal/store + internal/jobs),
	// filled in by Server.collect from Store.Stats and Queue.Counters; all
	// zeros on a jobs-disabled server so the schema is configuration-
	// independent.
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	StoreBytes   int64 `json:"store_bytes"`
	StoreEntries int64 `json:"store_entries"`
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`
	JobsReplayed int64 `json:"jobs_replayed"`

	// The job scheduler's gauges (jobs.SchedCounters), flat like the
	// rest: pick policy and counts, the bypassed-while-eligible worst
	// case the fairness bound is judged on, the measured drain rate the
	// balanced policy packs against, and the analytic core's verdict on
	// the queue itself ("idle" | "balanced" | "memory-bound" |
	// "compute-bound"). Zero values on a jobs-disabled server.
	SchedPolicy       string  `json:"jobs_sched_policy"`
	SchedPicks        int64   `json:"jobs_sched_picks"`
	SchedSkips        int64   `json:"jobs_sched_skips"`
	SchedMaxWaitPicks int64   `json:"jobs_sched_max_wait_picks"`
	SchedDrainBPS     float64 `json:"jobs_sched_drain_bps"`
	SchedRunningBytes int64   `json:"jobs_sched_running_bytes"`
	SchedSelfState    string  `json:"jobs_sched_self_state"`

	// Tenants is the per-tenant slice of the counters above, keyed by
	// tenant name ("anonymous" plus every configured tenant — a bounded
	// set). Present only when tenancy is configured, so an untenanted
	// server's /metrics bytes (and the pinned schema) are unchanged.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`

	// What only the Prometheus rendering shows, unexported so the JSON
	// bytes and key set stay as pinned: the raw histograms the JSON
	// digests into quantiles (routes sorted by name, the global one their
	// merge), the top-level job-memory gauges, and which subsystems are
	// open — the text format omits the families of an absent one.
	routes        []routeHist
	latency       obs.HistSnap
	stages        [obs.NumStages]obs.HistSnap
	jobsMemInUse  int64
	jobsMemBudget int64
	hasStore      bool
	hasQueue      bool
}

// routeHist is one route's histogram in the snapshot.
type routeHist struct {
	route string
	h     obs.HistSnap
}

// TenantSnapshot is one tenant's slice of /metrics: traffic admitted and
// refused at the tenancy layer, plus the tenant's job-budget gauges
// (filled from the queue's per-tenant accounting; zero on a
// jobs-disabled server).
type TenantSnapshot struct {
	Requests     int64 `json:"requests_total"`
	RateLimited  int64 `json:"rate_limited_total"`
	OverBudget   int64 `json:"over_budget_total"`
	JobMemInUse  int64 `json:"job_mem_in_use_bytes"`
	JobMemBudget int64 `json:"job_mem_budget_bytes"`
	// SchedServed counts jobs the scheduler has handed to workers on
	// this tenant's behalf — the per-tenant side of jobs_sched_picks.
	SchedServed int64 `json:"sched_served_total"`
}

// Snapshot captures the counters Metrics owns; Server.collect adds the
// stage profile and the async subsystem's gauges.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.inFlight.Load(),
		Requests:      make(map[string]int64),
		RouteLatency:  make(map[string]RouteLatency),
		StatusClasses: make(map[string]int64),
		Panics:        m.panics.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
	}
	// Preregistered routes that never saw a request are skipped, so the
	// maps list exactly the routes that were hit.
	for route, h := range m.routes {
		if hs := h.Snapshot(); hs.Count > 0 {
			s.routes = append(s.routes, routeHist{route, hs})
		}
	}
	slices.SortFunc(s.routes, func(a, b routeHist) int { return strings.Compare(a.route, b.route) })
	for i := range s.routes {
		r := &s.routes[i]
		s.Requests[r.route] = r.h.Count
		s.RouteLatency[r.route] = RouteLatency{
			Count:       r.h.Count,
			MeanSeconds: r.h.Mean(),
			P50Seconds:  r.h.Quantile(0.50),
			P95Seconds:  r.h.Quantile(0.95),
			P99Seconds:  r.h.Quantile(0.99),
			MaxSeconds:  r.h.Max.Seconds(),
		}
		s.latency.Add(r.h)
	}
	for i := range m.statuses {
		if n := m.statuses[i].Load(); n > 0 {
			class := "other"
			if i >= 2 && i <= 5 {
				class = statusClasses[i-2]
			}
			s.StatusClasses[class] += n
		}
	}
	s.LatencyMean = s.latency.Mean()
	s.LatencyBuckets = make([]HistogramBucket, 0, obs.NumBuckets+1)
	for i, n := range s.latency.Counts {
		s.LatencyBuckets = append(s.LatencyBuckets, HistogramBucket{obs.LatencyBounds[i], n})
	}
	s.LatencyBuckets = append(s.LatencyBuckets, HistogramBucket{-1, s.latency.Over})
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	if m.tenants != nil {
		s.Tenants = make(map[string]TenantSnapshot, len(m.tenants))
		for name, ts := range m.tenants {
			s.Tenants[name] = TenantSnapshot{
				Requests:    ts.requests.Load(),
				RateLimited: ts.rateLimited.Load(),
				OverBudget:  ts.overBudget.Load(),
			}
		}
	}
	return s
}

// collect is the one read of live state behind both /metrics renderings:
// the Metrics counters, the stage profile, and — when open — the store's
// and the queue's gauges, filled into one Snapshot that the JSON handler
// encodes and appendProm renders. A jobs-disabled server reports the
// async gauges as zeros, so the JSON key set (pinned by
// TestMetricsSchemaPinned) never varies by configuration.
func (s *Server) collect() Snapshot {
	snap := s.metrics.Snapshot()
	for st := range snap.stages {
		snap.stages[st] = s.stages.Snapshot(obs.Stage(st))
	}
	if s.store != nil {
		st := s.store.Stats()
		snap.hasStore = true
		snap.StoreHits = st.Hits
		snap.StoreMisses = st.Misses
		snap.StoreBytes = st.Bytes
		snap.StoreEntries = st.Entries
	}
	if s.queue == nil {
		return snap
	}
	c := s.queue.Counters()
	snap.hasQueue = true
	snap.JobsQueued = c.Queued
	snap.JobsRunning = c.Running
	snap.JobsDone = c.Done
	snap.JobsFailed = c.Failed
	snap.JobsCanceled = c.Canceled
	snap.JobsReplayed = c.Replayed
	snap.jobsMemInUse = c.MemInUseBytes
	snap.jobsMemBudget = c.MemBudgetBytes
	sc := s.queue.SchedCounters()
	snap.SchedPolicy = sc.Policy
	snap.SchedPicks = sc.Picks
	snap.SchedSkips = sc.Skips
	snap.SchedMaxWaitPicks = sc.MaxWaitPicks
	snap.SchedDrainBPS = sc.DrainBPS
	snap.SchedRunningBytes = sc.RunningBytes
	snap.SchedSelfState = sc.SelfState
	// Per-tenant job-memory and scheduler gauges join the tenancy
	// counters. Only preregistered names are filled — the key set stays
	// bounded by the config whatever the queue has seen.
	if snap.Tenants != nil {
		tc := s.queue.TenantCounters()
		for name, ts := range snap.Tenants {
			ts.JobMemInUse = tc[name].MemInUseBytes
			ts.JobMemBudget = tc[name].MemBudgetBytes
			ts.SchedServed = sc.ServedByTenant[name]
			snap.Tenants[name] = ts
		}
	}
	return snap
}

// Merge folds o into s; the cluster rollup is its nodes' snapshots merged
// one by one. Counters, gauges, maps and histogram buckets sum; quantiles
// and maxima — the worst scheduler wait among them — take the larger;
// means are weighted by their counts; uptime is the oldest; and the
// scheduler's self-state is "idle" only if every node's is. Only the JSON
// fields merge (they are what crosses the wire to a gateway); the
// unexported Prometheus detail stays node-local.
func (s *Snapshot) Merge(o *Snapshot) {
	sReq, oReq := sumCounts(s.Requests), sumCounts(o.Requests)
	if sReq+oReq > 0 {
		s.LatencyMean = (s.LatencyMean*float64(sReq) + o.LatencyMean*float64(oReq)) / float64(sReq+oReq)
	}
	s.UptimeSeconds = max(s.UptimeSeconds, o.UptimeSeconds)
	s.InFlight += o.InFlight
	s.Panics += o.Panics
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.StoreBytes += o.StoreBytes
	s.StoreEntries += o.StoreEntries
	s.JobsQueued += o.JobsQueued
	s.JobsRunning += o.JobsRunning
	s.JobsDone += o.JobsDone
	s.JobsFailed += o.JobsFailed
	s.JobsCanceled += o.JobsCanceled
	s.JobsReplayed += o.JobsReplayed
	s.SchedPicks += o.SchedPicks
	s.SchedSkips += o.SchedSkips
	s.SchedMaxWaitPicks = max(s.SchedMaxWaitPicks, o.SchedMaxWaitPicks)
	s.SchedDrainBPS += o.SchedDrainBPS
	s.SchedRunningBytes += o.SchedRunningBytes
	if s.SchedPolicy == "" {
		s.SchedPolicy = o.SchedPolicy
	}
	if (s.SchedSelfState == "" || s.SchedSelfState == "idle") && o.SchedSelfState != "" {
		s.SchedSelfState = o.SchedSelfState
	}
	s.Requests = addCounts(s.Requests, o.Requests)
	s.StatusClasses = addCounts(s.StatusClasses, o.StatusClasses)
	for route, rl := range o.RouteLatency {
		if s.RouteLatency == nil {
			s.RouteLatency = make(map[string]RouteLatency, len(o.RouteLatency))
		}
		cur := s.RouteLatency[route]
		merged := RouteLatency{
			Count:      cur.Count + rl.Count,
			P50Seconds: max(cur.P50Seconds, rl.P50Seconds),
			P95Seconds: max(cur.P95Seconds, rl.P95Seconds),
			P99Seconds: max(cur.P99Seconds, rl.P99Seconds),
			MaxSeconds: max(cur.MaxSeconds, rl.MaxSeconds),
		}
		if merged.Count > 0 {
			merged.MeanSeconds = (cur.MeanSeconds*float64(cur.Count) +
				rl.MeanSeconds*float64(rl.Count)) / float64(merged.Count)
		}
		s.RouteLatency[route] = merged
	}
	// Every node buckets on obs.LatencyBounds; a bucket list of another
	// length is a foreign schema and is left out rather than misadded.
	if s.LatencyBuckets == nil {
		s.LatencyBuckets = slices.Clone(o.LatencyBuckets)
	} else if len(s.LatencyBuckets) == len(o.LatencyBuckets) {
		for i := range s.LatencyBuckets {
			s.LatencyBuckets[i].Count += o.LatencyBuckets[i].Count
		}
	}
	for name, ts := range o.Tenants {
		if s.Tenants == nil {
			s.Tenants = make(map[string]TenantSnapshot, len(o.Tenants))
		}
		cur := s.Tenants[name]
		cur.Requests += ts.Requests
		cur.RateLimited += ts.RateLimited
		cur.OverBudget += ts.OverBudget
		cur.JobMemInUse += ts.JobMemInUse
		cur.JobMemBudget += ts.JobMemBudget
		cur.SchedServed += ts.SchedServed
		s.Tenants[name] = cur
	}
}

func sumCounts(m map[string]int64) (n int64) {
	for _, c := range m {
		n += c
	}
	return n
}

// addCounts adds src into dst key by key, creating dst when needed.
func addCounts(dst, src map[string]int64) map[string]int64 {
	for k, n := range src {
		if dst == nil {
			dst = make(map[string]int64, len(src))
		}
		dst[k] += n
	}
	return dst
}

// statusClasses are the class names in exposition order: status/100 of
// 2 through 5 names statusClasses[status/100-2], any other is "other".
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx", "other"}
