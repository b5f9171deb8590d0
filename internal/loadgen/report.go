package loadgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"balarch/client"
	"balarch/internal/obs"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// Report renders the run as an internal/report.Result: the gate claims, a
// run-configuration table, the per-route latency table, and one raw data
// series per route — so the text and JSON forms of a load report use the
// same machinery (and formats) as the paper experiments.
func (s *Summary) Report() *report.Result {
	res := &report.Result{
		ID:         "LOAD",
		Title:      fmt.Sprintf("scenario %s (%s loop, seed %d)", s.Scenario, s.Mode, s.Seed),
		PaperLocus: "DESIGN.md §5",
	}
	res.AddClaim(
		"every response matched its scenario expectation",
		"0 unexpected non-2xx responses",
		fmt.Sprintf("%d unexpected of %d requests", s.Unexpected, s.Requests),
		s.Unexpected == 0,
	)

	cfg := textplot.NewTable("mode", "workers", "target rps", "elapsed s", "requests", "dropped", "achieved rps")
	cfg.AddRow(s.Mode, s.Workers, s.TargetRate, s.ElapsedSeconds, s.Requests, s.DroppedArrivals, s.ThroughputRPS)
	res.Tables = append(res.Tables, "Run configuration and throughput\n"+cfg.String())

	lat := textplot.NewTable("route", "count", "unexpected", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, route := range s.routeNames() {
		rs := s.Routes[route]
		lat.AddRow(route, rs.Count, rs.Unexpected,
			1e3*rs.MeanSeconds, 1e3*rs.P50Seconds, 1e3*rs.P95Seconds, 1e3*rs.P99Seconds, 1e3*rs.MaxSeconds)
	}
	res.Tables = append(res.Tables, "Per-route latency (histogram quantiles)\n"+lat.String())

	for _, route := range s.routeNames() {
		rs := s.Routes[route]
		res.Series = append(res.Series, report.Series{
			Name:    route,
			Columns: []string{"count", "unexpected", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"},
			Rows: [][]float64{{
				float64(rs.Count), float64(rs.Unexpected),
				rs.MeanSeconds, rs.P50Seconds, rs.P95Seconds, rs.P99Seconds, rs.MaxSeconds,
			}},
		})
	}

	// The run's memory behavior (whole-process runtime.MemStats deltas):
	// the soak GC gate reads gc_per_1k_requests from this series, so a
	// hot-path pooling regression surfaces as collector pressure at equal
	// request volume.
	mem := textplot.NewTable("total alloc MB", "num gc", "gc per 1k requests")
	mem.AddRow(float64(s.MemTotalAllocBytes)/(1<<20), s.MemNumGC, s.GCPer1kRequests())
	res.Tables = append(res.Tables, "Process memory (runtime.MemStats deltas)\n"+mem.String())
	res.Series = append(res.Series, report.Series{
		Name:    "memstats",
		Columns: []string{"total_alloc_bytes", "num_gc", "gc_per_1k_requests"},
		Rows:    [][]float64{{float64(s.MemTotalAllocBytes), float64(s.MemNumGC), s.GCPer1kRequests()}},
	})
	return res
}

// GCPer1kRequests normalizes the run's GC count by request volume so runs
// of different durations compare (0 when the run issued nothing).
func (s *Summary) GCPer1kRequests() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.MemNumGC) * 1000 / float64(s.Requests)
}

// AddGCGate appends the GC-pressure claim to res: the run's GC count per
// 1k requests must not exceed the recorded baseline by more than 20% —
// the soak guard against hot-path allocation regressions that benchmarks
// with narrower coverage might miss. baselinePer1k ≤ 0 records the claim
// as vacuous-pass (no baseline yet).
func (s *Summary) AddGCGate(res *report.Result, baselinePer1k float64) {
	got := s.GCPer1kRequests()
	ceiling := baselinePer1k * 1.2
	res.AddClaim(
		"GC count per 1k requests stays within 20% of the recorded baseline",
		fmt.Sprintf("≤ %.2f GCs/1k requests (baseline %.2f + 20%%)", ceiling, baselinePer1k),
		fmt.Sprintf("%.2f GCs/1k requests (%d GCs over %d requests)", got, s.MemNumGC, s.Requests),
		baselinePer1k <= 0 || got <= ceiling,
	)
}

// AddTraceCoverageGate appends the trace-coverage claim to res: at least
// the min fraction of traced requests (those that carried a traceparent,
// via client.WithTracing) must have had their trace id echoed back by
// the server — end-to-end evidence the tracing layer handled them. A run
// that sent no traced requests while gating on coverage fails: the gate
// was asked for and the instrument never fired.
func (s *Summary) AddTraceCoverageGate(res *report.Result, min float64) {
	got := s.TraceCoverage()
	res.AddClaim(
		"the server echoes the trace id on traced requests",
		fmt.Sprintf("≥ %.2f%% of traced requests echoed", 100*min),
		fmt.Sprintf("%d of %d traced requests echoed (%.2f%%)",
			s.TraceEchoed, s.TraceRequests, 100*got),
		s.TraceRequests > 0 && got >= min,
	)
}

// routeNames returns the summary's routes in stable order.
func (s *Summary) routeNames() []string {
	names := make([]string, 0, len(s.Routes))
	for route := range s.Routes {
		names = append(names, route)
	}
	sort.Strings(names)
	return names
}

// AddP99Gate appends the latency-ceiling claim to res: every route's p99
// must be at or under ceiling.
func (s *Summary) AddP99Gate(res *report.Result, ceiling time.Duration) {
	worst := s.MaxP99()
	res.AddClaim(
		fmt.Sprintf("per-route p99 stays at or under %v", ceiling),
		fmt.Sprintf("p99 ≤ %.4gs on every route", ceiling.Seconds()),
		fmt.Sprintf("worst route p99 = %.4gs", worst),
		worst <= ceiling.Seconds(),
	)
}

// AddVictimP99Gate appends the tenancy-isolation claim to res: every
// victim-tenant route's p99 (routes labeled with VictimRoutePrefix) must
// stay at or under ceiling while the noisy tenant floods. This is the
// noisy-neighbor scenario's whole point — the abusive tenant's 429s are
// expected, the victim's latency is the gated quantity.
func (s *Summary) AddVictimP99Gate(res *report.Result, ceiling time.Duration) {
	worst := s.MaxP99Prefix(VictimRoutePrefix)
	res.AddClaim(
		fmt.Sprintf("victim-tenant p99 stays at or under %v despite the noisy tenant's flood", ceiling),
		fmt.Sprintf("p99 ≤ %.4gs on every %q route", ceiling.Seconds(), VictimRoutePrefix),
		fmt.Sprintf("worst victim route p99 = %.4gs", worst),
		worst <= ceiling.Seconds(),
	)
}

// crossCheckMinSamples is the per-route sample floor below which quantile
// agreement is statistically meaningless and the route is skipped.
const crossCheckMinSamples = 30

// samplesAbove is how many of n samples lie above quantile q's ceiling
// rank. 0 is the regime where the estimator returns the sample maximum
// rather than an interior order statistic.
func samplesAbove(q float64, n int64) int64 {
	return n - int64(math.Ceil(q*float64(n)))
}

// subMillisecond is the latency regime where loopback transport overhead
// (~0.1–0.3 ms: connection handling, header parsing, response flush — all
// outside the server's own measurement window) is the same scale as the
// histogram buckets themselves.
const subMillisecond = 0.001

// CrossCheck compares the run's client-side quantiles against the server's
// /metrics route histograms: for every route the run drove with enough
// samples, p50/p95/p99 must land within one histogram bucket of the
// server's estimate (a quantile whose ceiling rank is the sample maximum
// on either side is skipped — see crossCheck). When either side's estimate is sub-millisecond — a
// regime where the buckets are as narrow as the client-vs-server transport
// overhead — one extra bucket of grace is allowed, since there the two
// sides genuinely measure different quantities. It returns one message per
// discrepancy; an empty slice is agreement. Meaningful only below
// saturation (queueing ahead of the server's measurement window — kernel
// accept queues, goroutine scheduling on a loaded host — inflates only the
// client side; ci/soak.sh therefore cross-checks a serial calibration
// phase, then applies the load gates to the saturating phase) and against
// a server whose traffic was (almost) exclusively this run.
func CrossCheck(s *Summary, m *client.MetricsSnapshot) []string {
	return crossCheck(s, m, 1)
}

// crossCheck is CrossCheck comparing only quantiles with at least
// minAbove samples above their rank on both sides; CrossCheck's 1 skips
// just the sample maximum.
func crossCheck(s *Summary, m *client.MetricsSnapshot, minAbove int64) []string {
	bounds := obs.LatencyBounds[:]
	var problems []string
	for _, route := range s.routeNames() {
		rs := s.Routes[route]
		if rs.Count < crossCheckMinSamples {
			continue
		}
		sl, ok := m.RouteLatency[route]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s: loadgen drove %d requests but the server's /metrics has no histogram for it",
				route, rs.Count))
			continue
		}
		for _, q := range []struct {
			name           string
			q              float64
			client, server float64
		}{
			{"p50", 0.50, rs.P50Seconds, sl.P50Seconds},
			{"p95", 0.95, rs.P95Seconds, sl.P95Seconds},
			{"p99", 0.99, rs.P99Seconds, sl.P99Seconds},
		} {
			if samplesAbove(q.q, rs.Count) < minAbove || samplesAbove(q.q, sl.Count) < minAbove {
				// The ceiling rank ⌈q·n⌉ lands on the last sample: the
				// "quantile" is the sample maximum, an extreme statistic
				// one scheduling outlier moves by orders of magnitude —
				// and the two sides' maxima come from different
				// measurement windows, so comparing them compares
				// outliers, not the instrument. (p99 needs ≥ 101 samples
				// to be an interior rank.)
				continue
			}
			ci := BucketIndex(bounds, q.client)
			si := BucketIndex(bounds, q.server)
			tolerance := 1
			if math.Min(q.client, q.server) <= subMillisecond {
				tolerance = 2
			}
			if d := ci - si; d < -tolerance || d > tolerance {
				problems = append(problems, fmt.Sprintf(
					"%s: %s disagrees beyond %d bucket(s): loadgen %.4gs (bucket %d) vs server %.4gs (bucket %d)",
					route, q.name, tolerance, q.client, ci, q.server, si))
			}
		}
	}
	return problems
}

// BucketIndex maps a quantile estimate back to its bucket position on
// bounds: the smallest bucket whose upper bound is ≥ v, or len(bounds) for
// the overflow region. Two estimates "agree within one bucket" when their
// indices differ by at most one.
func BucketIndex(bounds []float64, v float64) int {
	for i, ub := range bounds {
		if v <= ub {
			return i
		}
	}
	return len(bounds)
}

// AddJobsDrainGate appends the zero-lost-jobs claim for async (job-queue)
// runs: within timeout of the run ending, every submitted job must reach
// a terminal state (queued+running drain to zero) and none may have
// failed — a journaled-but-never-finished or failed job is a lost
// promise. It polls GET /metrics until the queue drains or the budget
// runs out.
func AddJobsDrainGate(ctx context.Context, res *report.Result, c *client.Client, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	var (
		m   *client.MetricsSnapshot
		err error
	)
	for {
		m, err = c.Metrics(ctx)
		if err == nil && m.JobsQueued+m.JobsRunning == 0 {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	measured := ""
	pass := false
	switch {
	case err != nil:
		measured = fmt.Sprintf("could not read /metrics: %v", err)
	case m.JobsQueued+m.JobsRunning > 0:
		measured = fmt.Sprintf("queue did not drain within %v: %d queued, %d running",
			timeout, m.JobsQueued, m.JobsRunning)
	case m.JobsFailed > 0:
		measured = fmt.Sprintf("%d jobs failed (%d done)", m.JobsFailed, m.JobsDone)
	default:
		measured = fmt.Sprintf("queue drained: %d done, 0 failed, %d served from the store",
			m.JobsDone, m.StoreHits)
		pass = true
	}
	res.AddClaim(
		"no jobs lost: every submitted job reaches a terminal state, none failed",
		"jobs_queued + jobs_running drain to 0 with jobs_failed = 0",
		measured,
		pass,
	)
}

// AddFairnessGate appends the scheduler-fairness claims for the
// backlog-fairness scenario: the queue must drain within timeout (same
// poll as AddJobsDrainGate — a starved job never drains), no tenant
// with eligible pending work may have been bypassed more than maxWait
// consecutive picks (jobs_sched_max_wait_picks, the weighted
// round-robin's starvation bound), and the minority tenant must
// actually have been served (sched_served_total > 0) despite the bulk
// tenant's 10:1 backlog.
func AddFairnessGate(ctx context.Context, res *report.Result, c *client.Client, timeout time.Duration, maxWait int64) {
	deadline := time.Now().Add(timeout)
	var (
		m   *client.MetricsSnapshot
		err error
	)
	for {
		m, err = c.Metrics(ctx)
		if err == nil && m.JobsQueued+m.JobsRunning == 0 {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		res.AddClaim(
			"scheduler fairness under a 10:1 tenant backlog",
			"queue drains; max wait and per-tenant served are readable",
			fmt.Sprintf("could not read /metrics: %v", err),
			false,
		)
		return
	}
	drained := m.JobsQueued+m.JobsRunning == 0
	res.AddClaim(
		"the backlog drains: no job is starved forever",
		fmt.Sprintf("jobs_queued + jobs_running reach 0 within %v with jobs_failed = 0", timeout),
		fmt.Sprintf("%d queued, %d running, %d done, %d failed",
			m.JobsQueued, m.JobsRunning, m.JobsDone, m.JobsFailed),
		drained && m.JobsFailed == 0,
	)
	res.AddClaim(
		"no tenant with eligible pending work waits beyond the weighted round",
		fmt.Sprintf("jobs_sched_max_wait_picks ≤ %d", maxWait),
		fmt.Sprintf("max consecutive bypasses = %d over %d picks (%d skips)",
			m.SchedMaxWaitPicks, m.SchedPicks, m.SchedSkips),
		m.SchedMaxWaitPicks <= maxWait,
	)
	minority := m.Tenants["minority"]
	res.AddClaim(
		"the minority tenant is served despite the bulk tenant's backlog",
		"minority sched_served_total > 0",
		fmt.Sprintf("minority served %d, bulk served %d",
			minority.SchedServed, m.Tenants["bulk"].SchedServed),
		minority.SchedServed > 0,
	)
}

// AddCrossCheckGate appends the /metrics agreement claim to res.
func AddCrossCheckGate(res *report.Result, s *Summary, m *client.MetricsSnapshot) {
	problems := CrossCheck(s, m)
	measured := "all routes agree"
	if len(problems) > 0 {
		measured = fmt.Sprintf("%d discrepancies; first: %s", len(problems), problems[0])
	}
	res.AddClaim(
		"client-side quantiles agree with the server's /metrics histograms",
		"p50/p95/p99 within one bucket on every driven route",
		measured,
		len(problems) == 0,
	)
}
