package loadgen

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"balarch/client"
	"balarch/internal/report"
	"balarch/internal/server"
)

// testClient binds a client to a fresh jobs-enabled in-process server, so
// every scenario — including job-queue — is valid traffic against it.
func testClient(t *testing.T) *client.Client {
	t.Helper()
	srv := server.New(server.Options{Parallelism: 2, StoreDir: t.TempDir()})
	if srv.JobsErr() != nil {
		t.Fatal(srv.JobsErr())
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return client.NewFromHandler(srv.Handler())
}

// TestPlanDeterministic is the acceptance gate: same seed + same scenario
// ⇒ byte-identical request sequence, for every scenario in the catalog.
func TestPlanDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a := EncodePlan(sc.Plan(42, 300))
		b := EncodePlan(sc.Plan(42, 300))
		if !bytes.Equal(a, b) {
			t.Errorf("scenario %s: two plans from seed 42 differ", sc.Name)
		}
		c := EncodePlan(sc.Plan(43, 300))
		if bytes.Equal(a, c) {
			t.Errorf("scenario %s: seeds 42 and 43 produced identical plans", sc.Name)
		}
	}
}

func TestScenarioCatalog(t *testing.T) {
	want := []string{"analyze-heavy", "backlog-fairness", "batch-burst", "cluster-mix", "experiment-replay", "hierarchy-mix", "job-queue", "mixed-production", "noisy-neighbor", "sweep-stampede"}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d scenarios, want %d", len(got), len(want))
	}
	for i, sc := range got {
		if sc.Name != want[i] {
			t.Errorf("catalog[%d] = %s, want %s", i, sc.Name, want[i])
		}
		if sc.Description == "" {
			t.Errorf("%s has no description", sc.Name)
		}
	}
	if _, err := Get("mixed-production"); err != nil {
		t.Errorf("Get(mixed-production): %v", err)
	}
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "mixed-production") {
		t.Errorf("Get(nope) = %v, want an error naming the catalog", err)
	}
}

// TestEveryScenarioCleanAgainstServer drives each scenario closed-loop at
// the real API stack: every generated request must draw an expected
// response — the scenarios are meant to be valid traffic, so any 4xx/5xx
// is a generator bug (or a service regression).
func TestEveryScenarioCleanAgainstServer(t *testing.T) {
	c := testClient(t)
	for _, sc := range Scenarios() {
		n := int64(40)
		if sc.Name == "experiment-replay" && testing.Short() {
			n = 10
		}
		sum, err := Run(context.Background(), c, Config{
			Scenario: sc, Seed: 7, Workers: 4, MaxRequests: n,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if sum.Requests != n {
			t.Errorf("%s: issued %d requests, want %d", sc.Name, sum.Requests, n)
		}
		if sum.Unexpected != 0 {
			for route, rs := range sum.Routes {
				for _, sample := range rs.UnexpectedSamples {
					t.Logf("%s %s: %s", sc.Name, route, sample)
				}
			}
			t.Errorf("%s: %d unexpected responses", sc.Name, sum.Unexpected)
		}
		if sum.Mode != "closed" {
			t.Errorf("%s: mode %q, want closed", sc.Name, sum.Mode)
		}
	}
}

func TestOpenLoopPacing(t *testing.T) {
	c := testClient(t)
	sc, _ := Get("analyze-heavy")
	sum, err := Run(context.Background(), c, Config{
		Scenario: sc, Seed: 1, Workers: 4, Duration: 400 * time.Millisecond, Rate: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "open" {
		t.Fatalf("mode %q, want open", sum.Mode)
	}
	// 200/s over 0.4s ≈ 80 arrivals; allow generous scheduling slack but
	// require the catch-up pacing to have come close.
	if sum.Requests+sum.DroppedArrivals < 40 {
		t.Errorf("open loop produced only %d arrivals (%d issued, %d dropped)",
			sum.Requests+sum.DroppedArrivals, sum.Requests, sum.DroppedArrivals)
	}
	if sum.Unexpected != 0 {
		t.Errorf("%d unexpected responses", sum.Unexpected)
	}
}

func TestRunValidation(t *testing.T) {
	c := testClient(t)
	if _, err := Run(context.Background(), c, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	sc, _ := Get("analyze-heavy")
	if _, err := Run(context.Background(), c, Config{Scenario: sc}); err == nil {
		t.Error("config without duration or request cap accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, c, Config{Scenario: sc, MaxRequests: 5}); err == nil {
		t.Error("cancelled context did not error")
	}
}

// TestJobQueueScenarioDrains drives the async scenario, then applies the
// zero-lost-jobs gate: the queue must drain with nothing failed, and the
// gate must appear as a passing claim in the report.
func TestJobQueueScenarioDrains(t *testing.T) {
	c := testClient(t)
	sc, err := Get("job-queue")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), c, Config{Scenario: sc, Seed: 11, Workers: 4, MaxRequests: 120})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unexpected != 0 {
		for route, rs := range sum.Routes {
			for _, sample := range rs.UnexpectedSamples {
				t.Logf("%s: %s", route, sample)
			}
		}
		t.Fatalf("%d unexpected responses", sum.Unexpected)
	}
	if sum.Routes["POST /v1/jobs"] == nil || sum.Routes["POST /v1/jobs"].Count == 0 {
		t.Fatal("scenario submitted no jobs")
	}
	res := sum.Report()
	AddJobsDrainGate(context.Background(), res, c, 30*time.Second)
	if !res.Pass() {
		t.Errorf("drain gate failed: %+v", res.Claims)
	}
	// The gate is a real instrument: every submitted pool job is now
	// terminal and the store holds their results.
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone == 0 || m.StoreEntries == 0 {
		t.Errorf("after drain: jobs_done=%d store_entries=%d", m.JobsDone, m.StoreEntries)
	}
}

// TestHierarchyMixPassesSoakGates drives the hierarchy scenario through
// the full API stack and applies the same gates ci/soak.sh enforces: zero
// unexpected non-2xx responses and every route's p99 under the ceiling. The
// new surface must be soak-clean from day one.
func TestHierarchyMixPassesSoakGates(t *testing.T) {
	c := testClient(t)
	sc, err := Get("hierarchy-mix")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), c, Config{Scenario: sc, Seed: 5, Workers: 4, MaxRequests: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unexpected != 0 {
		for route, rs := range sum.Routes {
			for _, sample := range rs.UnexpectedSamples {
				t.Logf("%s: %s", route, sample)
			}
		}
		t.Fatalf("%d unexpected responses", sum.Unexpected)
	}
	// The mix must actually exercise the hierarchy surface.
	for _, route := range []string{"POST /v1/analyze", "POST /v1/rebalance", "POST /v1/roofline", "POST /v1/sweep", "GET /v1/catalog"} {
		if sum.Routes[route] == nil || sum.Routes[route].Count == 0 {
			t.Errorf("route %s never exercised", route)
		}
	}
	res := sum.Report()
	sum.AddP99Gate(res, 5*time.Second)
	if !res.Pass() {
		t.Errorf("soak gates failed: %+v", res.Claims)
	}
}

// TestGCGate exercises the GC-pressure claim: within baseline+20% passes,
// beyond fails, and a zero baseline is a vacuous pass.
func TestGCGate(t *testing.T) {
	sum := &Summary{Requests: 4000, MemNumGC: 10} // 2.5 GCs per 1k requests
	if got := sum.GCPer1kRequests(); got != 2.5 {
		t.Fatalf("GCPer1kRequests = %v, want 2.5", got)
	}
	for _, tc := range []struct {
		baseline float64
		pass     bool
	}{
		{2.5, true},  // at baseline
		{2.1, true},  // 2.5 ≤ 2.1 × 1.2 = 2.52
		{2.0, false}, // 2.5 > 2.0 × 1.2 = 2.4
		{0, true},    // no baseline recorded yet: vacuous pass
	} {
		res := &report.Result{}
		sum.AddGCGate(res, tc.baseline)
		if res.Pass() != tc.pass {
			t.Errorf("baseline %v: pass = %v, want %v (claims %+v)",
				tc.baseline, res.Pass(), tc.pass, res.Claims)
		}
	}
	// A run that issued nothing must not divide by zero.
	if got := (&Summary{}).GCPer1kRequests(); got != 0 {
		t.Errorf("empty run GCPer1kRequests = %v, want 0", got)
	}

	// The memstats land in the report as a series — that is the soak JSON
	// artifact the gate's numbers are read back from.
	res := (&Summary{Requests: 1000, MemNumGC: 3, MemTotalAllocBytes: 1 << 20,
		Routes: map[string]*RouteSummary{}}).Report()
	found := false
	for _, s := range res.Series {
		if s.Name != "memstats" {
			continue
		}
		found = true
		want := []string{"total_alloc_bytes", "num_gc", "gc_per_1k_requests"}
		if strings.Join(s.Columns, ",") != strings.Join(want, ",") {
			t.Errorf("memstats columns = %v", s.Columns)
		}
		if s.Rows[0][0] != 1<<20 || s.Rows[0][1] != 3 || s.Rows[0][2] != 3 {
			t.Errorf("memstats row = %v", s.Rows[0])
		}
	}
	if !found {
		t.Error("report has no memstats series")
	}
}

func TestBucketIndex(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	for _, tc := range []struct {
		v    float64
		want int
	}{{0.0005, 0}, {0.001, 0}, {0.002, 1}, {0.1, 2}, {5, 3}} {
		if got := BucketIndex(bounds, tc.v); got != tc.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestCrossCheckAgainstLiveMetrics runs a scenario in process and requires
// the loadgen quantiles and the server's own histograms to agree within one
// bucket — the instrument calibrating itself against the subject.
func TestCrossCheckAgainstLiveMetrics(t *testing.T) {
	srv := server.New(server.Options{Parallelism: 2})
	c := client.NewFromHandler(srv.Handler())
	sc, _ := Get("analyze-heavy")
	// One worker: more client workers than CPUs put run-queue wait into
	// the client's clock and not the server's, which is a property of the
	// host, not of the instrument under test.
	sum, err := Run(context.Background(), c, Config{Scenario: sc, Seed: 3, Workers: 1, MaxRequests: 300})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Compare only ranks at least 10 samples below the maximum: a rank
	// nearer the top is an outlier statistic on a shared host, for the
	// reason CrossCheck skips the maximum itself.
	if problems := crossCheck(sum, m, 10); len(problems) != 0 {
		t.Errorf("cross-check failed:\n%s", strings.Join(problems, "\n"))
	}
}

// TestCrossCheckDetectsDisagreement feeds a doctored snapshot and expects
// the check to flag it.
func TestCrossCheckDetectsDisagreement(t *testing.T) {
	sum := &Summary{Routes: map[string]*RouteSummary{
		"POST /v1/analyze": {Count: 100, P50Seconds: 0.0001, P95Seconds: 0.0001, P99Seconds: 0.0001},
	}}
	m := &client.MetricsSnapshot{RouteLatency: map[string]client.RouteLatency{
		"POST /v1/analyze": {Count: 100, P50Seconds: 1, P95Seconds: 1, P99Seconds: 1},
	}}
	if problems := CrossCheck(sum, m); len(problems) != 3 {
		t.Errorf("want 3 quantile discrepancies, got %v", problems)
	}
	// A route the server never saw is its own discrepancy.
	m2 := &client.MetricsSnapshot{RouteLatency: map[string]client.RouteLatency{}}
	if problems := CrossCheck(sum, m2); len(problems) != 1 {
		t.Errorf("missing-route case: got %v", problems)
	}
	// Below the sample floor the route is skipped.
	sum.Routes["POST /v1/analyze"].Count = 5
	if problems := CrossCheck(sum, m); len(problems) != 0 {
		t.Errorf("under-sampled route should be skipped, got %v", problems)
	}
}

func TestReportShape(t *testing.T) {
	c := testClient(t)
	sc, _ := Get("analyze-heavy")
	sum, err := Run(context.Background(), c, Config{Scenario: sc, Seed: 9, Workers: 2, MaxRequests: 25})
	if err != nil {
		t.Fatal(err)
	}
	res := sum.Report()
	if !res.Pass() {
		t.Errorf("clean run's report does not pass: %+v", res.Claims)
	}
	var text strings.Builder
	if err := res.Render(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LOAD", "analyze-heavy", "POST /v1/analyze", "p99 ms"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	if len(res.Series) == 0 {
		t.Error("report has no per-route series")
	}

	// The p99 ceiling gate: an absurdly low ceiling must fail the report.
	sum.AddP99Gate(res, time.Nanosecond)
	if res.Pass() {
		t.Error("1ns p99 ceiling did not fail the report")
	}

	// The cross-check gate against live metrics passes on a fresh run.
	res2 := sum.Report()
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	AddCrossCheckGate(res2, sum, m)
	if len(res2.Claims) != 2 {
		t.Errorf("report has %d claims, want 2", len(res2.Claims))
	}
}
