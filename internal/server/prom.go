package server

import (
	"maps"
	"net/http"
	"slices"

	"balarch/internal/obs"
)

// Prometheus exposition: GET /metrics?format=prometheus renders the
// Snapshot that Server.collect reads — the same value the JSON body
// encodes — as text format 0.0.4, through the append-style encoder in
// internal/obs. appendProm reads no live state, so the two views agree by
// construction and differ only in syntax (and in the raw histograms and
// gauges the Snapshot carries unexported for this rendering alone).
//
// Naming follows the Prometheus conventions rather than the JSON keys:
// a "balarch_" prefix, "_total" on counters, base units in the name
// ("_seconds", "_bytes"). Label cardinality is bounded by construction —
// route labels come from the preregistered pattern table, stage labels
// from the fixed Stage enum, tenant labels from the tenancy config —
// the same bounds the JSON maps live under.

// handleMetricsProm renders the text exposition into a pooled buffer and
// writes it in one shot.
func (s *Server) handleMetricsProm(w http.ResponseWriter) {
	snap := s.collect()
	bb := getBuf()
	e := obs.PromEnc{B: bb.b[:0]}
	appendProm(&e, &snap)
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.B)
	bb.b = e.B
	putBuf(bb)
}

func appendProm(e *obs.PromEnc, s *Snapshot) {
	e.Header("balarch_uptime_seconds", "Seconds since the server started.", "gauge")
	e.Begin("balarch_uptime_seconds")
	e.Value(s.UptimeSeconds)

	e.Header("balarch_in_flight_requests", "Requests currently inside the handler.", "gauge")
	e.Begin("balarch_in_flight_requests")
	e.Int(s.InFlight)

	e.Header("balarch_requests_total", "Completed requests by matched route.", "counter")
	for i := range s.routes {
		e.Begin("balarch_requests_total")
		e.Label("route", s.routes[i].route)
		e.Int(s.routes[i].h.Count)
	}

	e.Header("balarch_responses_total", "Completed responses by status class.", "counter")
	for _, class := range statusClasses {
		if n := s.StatusClasses[class]; n > 0 {
			e.Begin("balarch_responses_total")
			e.Label("class", class)
			e.Int(n)
		}
	}

	e.Header("balarch_panics_recovered_total", "Handler panics converted to 500s.", "counter")
	e.Begin("balarch_panics_recovered_total")
	e.Int(s.Panics)

	e.Header("balarch_request_latency_seconds", "Request latency over all routes.", "histogram")
	e.Hist("balarch_request_latency_seconds", "", "", &s.latency)
	e.Header("balarch_route_latency_seconds", "Request latency by matched route.", "histogram")
	for i := range s.routes {
		e.Hist("balarch_route_latency_seconds", "route", s.routes[i].route, &s.routes[i].h)
	}

	e.Header("balarch_sweep_cache_hits_total", "Sweeps served from the in-memory memo.", "counter")
	e.Begin("balarch_sweep_cache_hits_total")
	e.Int(s.CacheHits)
	e.Header("balarch_sweep_cache_misses_total", "Sweeps that ran the kernels.", "counter")
	e.Begin("balarch_sweep_cache_misses_total")
	e.Int(s.CacheMisses)

	// The pipeline-stage profile: one histogram per stage that has seen
	// an observation.
	e.Header("balarch_stage_latency_seconds", "Pipeline stage latency (decode, compute, wal_append, ...).", "histogram")
	for st := range s.stages {
		if s.stages[st].Count > 0 {
			e.Hist("balarch_stage_latency_seconds", "stage", obs.Stage(st).String(), &s.stages[st])
		}
	}

	// The async subsystem, when open. Unlike the JSON snapshot — whose
	// pinned schema must not vary by configuration — the text format's
	// contract is per-series, so absent subsystems simply expose nothing.
	if s.hasStore {
		e.Header("balarch_store_hits_total", "Store gets answered from the pack file.", "counter")
		e.Begin("balarch_store_hits_total")
		e.Int(s.StoreHits)
		e.Header("balarch_store_misses_total", "Store gets for absent keys.", "counter")
		e.Begin("balarch_store_misses_total")
		e.Int(s.StoreMisses)
		e.Header("balarch_store_bytes", "Total size of indexed blobs.", "gauge")
		e.Begin("balarch_store_bytes")
		e.Int(s.StoreBytes)
		e.Header("balarch_store_entries", "Number of indexed blobs.", "gauge")
		e.Begin("balarch_store_entries")
		e.Int(s.StoreEntries)
	}
	if s.hasQueue {
		e.Header("balarch_jobs", "Jobs by lifecycle state.", "gauge")
		for _, st := range [...]struct {
			state string
			n     int64
		}{
			{"queued", s.JobsQueued}, {"running", s.JobsRunning}, {"done", s.JobsDone},
			{"failed", s.JobsFailed}, {"canceled", s.JobsCanceled},
		} {
			e.Begin("balarch_jobs")
			e.Label("state", st.state)
			e.Int(st.n)
		}
		e.Header("balarch_jobs_replayed_total", "Jobs requeued by WAL replay at open.", "counter")
		e.Begin("balarch_jobs_replayed_total")
		e.Int(s.JobsReplayed)
		e.Header("balarch_jobs_mem_in_use_bytes", "Summed footprint of live jobs.", "gauge")
		e.Begin("balarch_jobs_mem_in_use_bytes")
		e.Int(s.jobsMemInUse)
		e.Header("balarch_jobs_mem_budget_bytes", "Admission budget for live jobs.", "gauge")
		e.Begin("balarch_jobs_mem_budget_bytes")
		e.Int(s.jobsMemBudget)

		e.Header("balarch_jobs_sched_picks_total", "Jobs handed to workers by the scheduler.", "counter")
		e.Begin("balarch_jobs_sched_picks_total")
		e.Int(s.SchedPicks)
		e.Header("balarch_jobs_sched_skips_total", "Eligible jobs bypassed by a pick.", "counter")
		e.Begin("balarch_jobs_sched_skips_total")
		e.Int(s.SchedSkips)
		e.Header("balarch_jobs_sched_max_wait_picks", "Worst bypassed-while-eligible wait, in picks.", "gauge")
		e.Begin("balarch_jobs_sched_max_wait_picks")
		e.Int(s.SchedMaxWaitPicks)
		e.Header("balarch_jobs_sched_drain_bytes_per_second", "Measured pool retirement rate.", "gauge")
		e.Begin("balarch_jobs_sched_drain_bytes_per_second")
		e.Value(s.SchedDrainBPS)
		e.Header("balarch_jobs_sched_running_bytes", "Summed footprint of running jobs.", "gauge")
		e.Begin("balarch_jobs_sched_running_bytes")
		e.Int(s.SchedRunningBytes)
		e.Header("balarch_jobs_sched_info", "Pick policy and the analytic self-state verdict.", "gauge")
		e.Begin("balarch_jobs_sched_info")
		e.Label("policy", s.SchedPolicy)
		e.Label("self_state", s.SchedSelfState)
		e.Int(1)
	}

	// Per-tenant counters, when tenancy is configured. Names are the
	// preregistered set — the cardinality bound — sorted for determinism.
	if s.Tenants == nil {
		return
	}
	names := slices.Sorted(maps.Keys(s.Tenants))
	tenantFamily := func(name, help, typ string, v func(TenantSnapshot) int64) {
		e.Header(name, help, typ)
		for _, n := range names {
			e.Begin(name)
			e.Label("tenant", n)
			e.Int(v(s.Tenants[n]))
		}
	}
	tenantFamily("balarch_tenant_requests_total", "Resolved requests by tenant.", "counter",
		func(t TenantSnapshot) int64 { return t.Requests })
	tenantFamily("balarch_tenant_rate_limited_total", "Bucket refusals (429 rate_limited) by tenant.", "counter",
		func(t TenantSnapshot) int64 { return t.RateLimited })
	tenantFamily("balarch_tenant_over_budget_total", "Job-admission refusals (429 over_budget) by tenant.", "counter",
		func(t TenantSnapshot) int64 { return t.OverBudget })
	if s.hasQueue {
		tenantFamily("balarch_tenant_job_mem_in_use_bytes", "Live job footprint by tenant.", "gauge",
			func(t TenantSnapshot) int64 { return t.JobMemInUse })
		tenantFamily("balarch_tenant_job_mem_budget_bytes", "Per-tenant admission partition (0 = uncapped).", "gauge",
			func(t TenantSnapshot) int64 { return t.JobMemBudget })
		tenantFamily("balarch_tenant_sched_served_total", "Scheduler picks by tenant.", "counter",
			func(t TenantSnapshot) int64 { return t.SchedServed })
	}
}

// TraceDump is the GET /debug/traces body: the capture ring newest-first
// plus the slowest request seen since start.
type TraceDump struct {
	Traces  []obs.TraceView `json:"traces"`
	Slowest *obs.TraceView  `json:"slowest,omitempty"`
}

// TraceHandler returns the GET /debug/traces handler: the captured trace
// ring as JSON. It is not part of the public API surface — balarchd
// mounts it on the pprof listener next to /debug/pprof, so traces are
// reachable from the operator port, never the tenant-facing one.
// ?slowest=1 drops the ring and returns only the slowest trace — the
// soak harness archives that as an artifact.
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces, slowest := s.tracer.Snapshot()
		dump := TraceDump{Traces: traces, Slowest: slowest}
		if r.URL.Query().Get("slowest") == "1" {
			dump.Traces = nil
		}
		writeJSON(w, dump)
	})
}
