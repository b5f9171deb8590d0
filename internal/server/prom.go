package server

import (
	"net/http"
	"sort"
	"time"

	"balarch/internal/obs"
)

// Prometheus exposition: GET /metrics?format=prometheus renders the same
// registry the JSON body is built from as text format 0.0.4, through the
// append-style encoder in internal/obs. The plain GET /metrics JSON —
// pinned byte-for-byte by TestMetricsSchemaPinned — is untouched: the
// format branch is taken before the snapshot, and every series here is
// read from the same slots, atomics, and subsystem counters the JSON
// handler reads, so the two views cannot drift apart in substance, only
// in syntax.
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
	bb := getBuf()
	var e obs.PromEnc
	e.B = bb.b[:0]
	s.appendProm(&e)
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.B)
	bb.b = e.B
	putBuf(bb)
}

// promRouteSample is one route's drained slot: the raw histogram the text
// format wants (the JSON snapshot pre-digests slots into quantiles, which
// Prometheus prefers to compute server-side from buckets).
type promRouteSample struct {
	route string
	count int64
	hist  []int64
	over  int64
	sum   float64
}

// drainRouteSlots copies every route slot that has seen traffic, sorted
// by route so the exposition is deterministic. Each slot is copied under
// its own mutex — the same locking discipline Snapshot uses.
func (m *Metrics) drainRouteSlots() []promRouteSample {
	slots := *m.slots.Load()
	routes := make([]string, 0, len(slots))
	for r := range slots {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	out := make([]promRouteSample, 0, len(routes))
	for _, route := range routes {
		rs := slots[route]
		rs.mu.Lock()
		if rs.count == 0 {
			rs.mu.Unlock()
			continue
		}
		out = append(out, promRouteSample{
			route: route,
			count: rs.count,
			hist:  append([]int64(nil), rs.hist...),
			over:  rs.over,
			sum:   rs.sum,
		})
		rs.mu.Unlock()
	}
	return out
}

func (s *Server) appendProm(e *obs.PromEnc) {
	m := s.metrics

	e.Header("balarch_uptime_seconds", "Seconds since the server started.", "gauge")
	e.Begin("balarch_uptime_seconds")
	e.Value(time.Since(m.start).Seconds())

	e.Header("balarch_in_flight_requests", "Requests currently inside the handler.", "gauge")
	e.Begin("balarch_in_flight_requests")
	e.Int(m.inFlight.Load())

	routes := m.drainRouteSlots()
	e.Header("balarch_requests_total", "Completed requests by matched route.", "counter")
	for _, rs := range routes {
		e.Begin("balarch_requests_total")
		e.Label("route", rs.route)
		e.Int(rs.count)
	}

	e.Header("balarch_responses_total", "Completed responses by status class.", "counter")
	for i := range m.statuses {
		if n := m.statuses[i].Load(); n > 0 {
			e.Begin("balarch_responses_total")
			e.Label("class", statusClassName(i*100))
			e.Int(n)
		}
	}

	e.Header("balarch_panics_recovered_total", "Handler panics converted to 500s.", "counter")
	e.Begin("balarch_panics_recovered_total")
	e.Int(m.panics.Load())

	// The global latency histogram is the per-route slots summed — the
	// identity the JSON snapshot maintains too.
	var (
		globalHist = make([]int64, len(latencyBuckets))
		globalOver int64
		globalSum  float64
	)
	for _, rs := range routes {
		for i, n := range rs.hist {
			globalHist[i] += n
		}
		globalOver += rs.over
		globalSum += rs.sum
	}
	e.Header("balarch_request_latency_seconds", "Request latency over all routes.", "histogram")
	e.Histogram("balarch_request_latency_seconds", "", "", latencyBuckets, globalHist, globalOver, globalSum)

	e.Header("balarch_route_latency_seconds", "Request latency by matched route.", "histogram")
	for _, rs := range routes {
		e.Histogram("balarch_route_latency_seconds", "route", rs.route, latencyBuckets, rs.hist, rs.over, rs.sum)
	}

	e.Header("balarch_sweep_cache_hits_total", "Sweeps served from the in-memory memo.", "counter")
	e.Begin("balarch_sweep_cache_hits_total")
	e.Int(m.cacheHits.Load())
	e.Header("balarch_sweep_cache_misses_total", "Sweeps that ran the kernels.", "counter")
	e.Begin("balarch_sweep_cache_misses_total")
	e.Int(m.cacheMisses.Load())

	// The pipeline-stage profile: one histogram per stage that has seen
	// an observation, on the same bucket bounds as the route latencies.
	e.Header("balarch_stage_latency_seconds", "Pipeline stage latency (decode, compute, wal_append, ...).", "histogram")
	for st := obs.Stage(0); int(st) < obs.NumStages; st++ {
		snap := s.stages.Snapshot(st)
		if snap.Count == 0 {
			continue
		}
		e.Histogram("balarch_stage_latency_seconds", "stage", st.String(),
			s.stages.Bounds(), snap.Counts, snap.Over, snap.SumSeconds)
	}

	// The async subsystem, when open. Unlike the JSON snapshot — whose
	// pinned schema must not vary by configuration — the text format's
	// contract is per-series, so absent subsystems simply expose nothing.
	if s.store != nil {
		st := s.store.Stats()
		e.Header("balarch_store_hits_total", "Store gets answered from the pack file.", "counter")
		e.Begin("balarch_store_hits_total")
		e.Int(st.Hits)
		e.Header("balarch_store_misses_total", "Store gets for absent keys.", "counter")
		e.Begin("balarch_store_misses_total")
		e.Int(st.Misses)
		e.Header("balarch_store_bytes", "Total size of indexed blobs.", "gauge")
		e.Begin("balarch_store_bytes")
		e.Int(st.Bytes)
		e.Header("balarch_store_entries", "Number of indexed blobs.", "gauge")
		e.Begin("balarch_store_entries")
		e.Int(st.Entries)
	}
	if s.queue != nil {
		c := s.queue.Counters()
		e.Header("balarch_jobs", "Jobs by lifecycle state.", "gauge")
		for _, st := range []struct {
			state string
			n     int64
		}{
			{"queued", c.Queued}, {"running", c.Running}, {"done", c.Done},
			{"failed", c.Failed}, {"canceled", c.Canceled},
		} {
			e.Begin("balarch_jobs")
			e.Label("state", st.state)
			e.Int(st.n)
		}
		e.Header("balarch_jobs_replayed_total", "Jobs requeued by WAL replay at open.", "counter")
		e.Begin("balarch_jobs_replayed_total")
		e.Int(c.Replayed)
		e.Header("balarch_jobs_mem_in_use_bytes", "Summed footprint of live jobs.", "gauge")
		e.Begin("balarch_jobs_mem_in_use_bytes")
		e.Int(c.MemInUseBytes)
		e.Header("balarch_jobs_mem_budget_bytes", "Admission budget for live jobs.", "gauge")
		e.Begin("balarch_jobs_mem_budget_bytes")
		e.Int(c.MemBudgetBytes)

		sc := s.queue.SchedCounters()
		e.Header("balarch_jobs_sched_picks_total", "Jobs handed to workers by the scheduler.", "counter")
		e.Begin("balarch_jobs_sched_picks_total")
		e.Int(sc.Picks)
		e.Header("balarch_jobs_sched_skips_total", "Eligible jobs bypassed by a pick.", "counter")
		e.Begin("balarch_jobs_sched_skips_total")
		e.Int(sc.Skips)
		e.Header("balarch_jobs_sched_max_wait_picks", "Worst bypassed-while-eligible wait, in picks.", "gauge")
		e.Begin("balarch_jobs_sched_max_wait_picks")
		e.Int(sc.MaxWaitPicks)
		e.Header("balarch_jobs_sched_drain_bytes_per_second", "Measured pool retirement rate.", "gauge")
		e.Begin("balarch_jobs_sched_drain_bytes_per_second")
		e.Value(sc.DrainBPS)
		e.Header("balarch_jobs_sched_running_bytes", "Summed footprint of running jobs.", "gauge")
		e.Begin("balarch_jobs_sched_running_bytes")
		e.Int(sc.RunningBytes)
		e.Header("balarch_jobs_sched_info", "Pick policy and the analytic self-state verdict.", "gauge")
		e.Begin("balarch_jobs_sched_info")
		e.Label("policy", sc.Policy)
		e.Label("self_state", sc.SelfState)
		e.Int(1)
	}

	// Per-tenant counters, when tenancy is configured. Names are the
	// preregistered set — the cardinality bound — sorted for determinism.
	if m.tenants != nil {
		names := make([]string, 0, len(m.tenants))
		for n := range m.tenants {
			names = append(names, n)
		}
		sort.Strings(names)
		e.Header("balarch_tenant_requests_total", "Resolved requests by tenant.", "counter")
		for _, n := range names {
			e.Begin("balarch_tenant_requests_total")
			e.Label("tenant", n)
			e.Int(m.tenants[n].requests.Load())
		}
		e.Header("balarch_tenant_rate_limited_total", "Bucket refusals (429 rate_limited) by tenant.", "counter")
		for _, n := range names {
			e.Begin("balarch_tenant_rate_limited_total")
			e.Label("tenant", n)
			e.Int(m.tenants[n].rateLimited.Load())
		}
		e.Header("balarch_tenant_over_budget_total", "Job-admission refusals (429 over_budget) by tenant.", "counter")
		for _, n := range names {
			e.Begin("balarch_tenant_over_budget_total")
			e.Label("tenant", n)
			e.Int(m.tenants[n].overBudget.Load())
		}
		if s.queue != nil {
			tc := s.queue.TenantCounters()
			e.Header("balarch_tenant_job_mem_in_use_bytes", "Live job footprint by tenant.", "gauge")
			for _, n := range names {
				e.Begin("balarch_tenant_job_mem_in_use_bytes")
				e.Label("tenant", n)
				e.Int(tc[n].MemInUseBytes)
			}
			e.Header("balarch_tenant_job_mem_budget_bytes", "Per-tenant admission partition (0 = uncapped).", "gauge")
			for _, n := range names {
				e.Begin("balarch_tenant_job_mem_budget_bytes")
				e.Label("tenant", n)
				e.Int(tc[n].MemBudgetBytes)
			}
			served := s.queue.SchedCounters().ServedByTenant
			e.Header("balarch_tenant_sched_served_total", "Scheduler picks by tenant.", "counter")
			for _, n := range names {
				e.Begin("balarch_tenant_sched_served_total")
				e.Label("tenant", n)
				e.Int(served[n])
			}
		}
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
