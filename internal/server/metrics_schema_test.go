package server

// Pinned-schema test for the /metrics JSON: the load generator's
// cross-check (internal/loadgen.CrossCheck) and any external scraping
// depend on these exact keys. Adding keys is fine — it will fail this test
// precisely so the addition is recorded here deliberately. Renames and
// removals are breaking changes.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"balarch/internal/obs"
)

// latencyBuckets are the bounds every node histogram is bucketed on.
var latencyBuckets = obs.LatencyBounds[:]

// keySet returns the sorted key list of a JSON object.
func keySet(t *testing.T, obj map[string]json.RawMessage) []string {
	t.Helper()
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func assertKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s keys changed:\n got: %v\nwant: %v\n(update this test AND internal/loadgen if the change is deliberate)",
			what, got, want)
	}
}

func TestMetricsSchemaPinned(t *testing.T) {
	srv := New(Options{Parallelism: 1})
	h := srv.Handler()

	// Populate every section: one success, one error, one cache miss+hit.
	post := func(path, body string) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
	}
	post("/v1/analyze", `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`)
	post("/v1/analyze", `{`)
	post("/v1/sweep", `{"kernel": "matmul", "n": 64, "params": [4]}`)
	post("/v1/sweep", `{"kernel": "matmul", "n": 64, "params": [4]}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &top); err != nil {
		t.Fatalf("/metrics is not a JSON object: %v", err)
	}
	assertKeys(t, "snapshot", keySet(t, top), []string{
		"in_flight",
		"jobs_canceled",
		"jobs_done",
		"jobs_failed",
		"jobs_queued",
		"jobs_replayed",
		"jobs_running",
		"jobs_sched_drain_bps",
		"jobs_sched_max_wait_picks",
		"jobs_sched_picks",
		"jobs_sched_policy",
		"jobs_sched_running_bytes",
		"jobs_sched_self_state",
		"jobs_sched_skips",
		"latency_histogram",
		"latency_mean_seconds",
		"panics_recovered",
		"requests_total",
		"responses_by_status_class",
		"route_latency",
		"store_bytes",
		"store_entries",
		"store_hits",
		"store_misses",
		"sweep_cache_hit_rate",
		"sweep_cache_hits",
		"sweep_cache_misses",
		"uptime_seconds",
	})

	var routes map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["route_latency"], &routes); err != nil {
		t.Fatalf("route_latency: %v", err)
	}
	rl, ok := routes["POST /v1/analyze"]
	if !ok {
		t.Fatalf("route_latency has no POST /v1/analyze entry: %v", routes)
	}
	assertKeys(t, "route_latency entry", keySet(t, rl), []string{
		"count", "max_seconds", "mean_seconds",
		"p50_seconds", "p95_seconds", "p99_seconds",
	})

	var buckets []map[string]json.RawMessage
	if err := json.Unmarshal(top["latency_histogram"], &buckets); err != nil {
		t.Fatalf("latency_histogram: %v", err)
	}
	if len(buckets) != len(latencyBuckets)+1 {
		t.Errorf("histogram has %d buckets, want %d (bounds + overflow)",
			len(buckets), len(latencyBuckets)+1)
	}
	assertKeys(t, "histogram bucket", keySet(t, buckets[0]), []string{"count", "le_seconds"})

	// Semantic spot-checks the cross-check relies on: counts accumulate per
	// route, quantile estimates are bucket bounds ordered p50 ≤ p99 ≤ max's
	// bucket, and the cached sweep counted a hit.
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	an := snap.RouteLatency["POST /v1/analyze"]
	if an.Count != 2 {
		t.Errorf("analyze count %d, want 2 (success and error both observed)", an.Count)
	}
	if an.P50Seconds > an.P99Seconds || an.P99Seconds <= 0 {
		t.Errorf("quantiles disordered: %+v", an)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestRequestIDMiddleware pins the echo semantics: a client id is echoed
// verbatim (truncated at the cap), an absent one is assigned.
func TestRequestIDMiddleware(t *testing.T) {
	srv := New(Options{Parallelism: 1})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, "trace-123")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); got != "trace-123" {
		t.Errorf("echoed id %q, want trace-123", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); !strings.HasPrefix(got, "balarch-") {
		t.Errorf("assigned id %q, want balarch-<n>", got)
	}

	long := strings.Repeat("x", 4096)
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, long)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); len(got) != 128 {
		t.Errorf("oversized id echoed at %d bytes, want truncation to 128", len(got))
	}

	// The echo must survive the error path too.
	req = httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader("{"))
	req.Header.Set(RequestIDHeader, "err-7")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest || rr.Header().Get(RequestIDHeader) != "err-7" {
		t.Errorf("error path: status %d id %q", rr.Code, rr.Header().Get(RequestIDHeader))
	}
}
