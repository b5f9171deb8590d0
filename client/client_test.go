package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"balarch/client"
	"balarch/internal/server"
)

// newTestClient binds a client to a fresh in-process API server.
func newTestClient(t *testing.T, opts ...client.Option) *client.Client {
	t.Helper()
	return client.NewFromHandler(server.New(server.Options{Parallelism: 2}).Handler(), opts...)
}

func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:8080", "ftp://x", "http://"} {
		if _, err := client.New(bad); err == nil {
			t.Errorf("New(%q) accepted an invalid base URL", bad)
		}
	}
	if _, err := client.New("http://127.0.0.1:8080/"); err != nil {
		t.Errorf("New rejected a valid base URL: %v", err)
	}
}

func TestAnalyzeTyped(t *testing.T) {
	c := newTestClient(t)
	a, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		PE:          client.PE{C: 50e6, IO: 1e6, M: 4096},
		Computation: client.Computation{Name: "fft"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §1 example: I/O bound, rebalanced at M = 2^20.
	if a.State != "io-bound" || a.BalancedMemory != 1<<20 {
		t.Errorf("analyze = %+v, want io-bound with balanced memory 2^20", a)
	}
}

func TestAPIErrorDecoding(t *testing.T) {
	c := newTestClient(t)
	_, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		PE:          client.PE{C: 1, IO: 1, M: 1},
		Computation: client.Computation{Name: "nope"},
	})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not *APIError", err, err)
	}
	if ae.Status != http.StatusUnprocessableEntity || ae.Code != "unknown_computation" {
		t.Errorf("APIError = %+v, want 422 unknown_computation", ae)
	}
	if ae.RequestID == "" {
		t.Error("APIError.RequestID empty: server did not echo/assign X-Request-ID")
	}
	if ae.Error() == "" || ae.Message == "" {
		t.Error("APIError must render a message")
	}
}

func TestRequestIDEchoed(t *testing.T) {
	c := newTestClient(t)
	raw, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Header.Get(client.RequestIDHeader) == "" {
		t.Error("healthz response has no X-Request-ID")
	}
}

func TestSweepAndMetricsRouteLatency(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	req := &client.SweepRequest{Kernel: "matmul", N: 64, Params: []int{4, 8}}
	cold, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || len(cold.Points) != 2 {
		t.Errorf("cold sweep = %+v, want 2 fresh points", cold)
	}
	warm, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second identical sweep not served from the memo")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rl, ok := m.RouteLatency["POST /v1/sweep"]
	if !ok {
		t.Fatalf("metrics route_latency missing POST /v1/sweep: %v", m.RouteLatency)
	}
	if rl.Count != 2 || rl.P99Seconds <= 0 || rl.MaxSeconds <= 0 {
		t.Errorf("sweep route latency = %+v, want count 2 with positive quantiles", rl)
	}
	if rl.P50Seconds > rl.P99Seconds {
		t.Errorf("p50 %v > p99 %v", rl.P50Seconds, rl.P99Seconds)
	}
}

func TestExperimentsListAndRun(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	list, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != 16 {
		t.Fatalf("experiment registry lists %d entries, want 16", len(list.Experiments))
	}
	run, err := c.RunExperiment(ctx, "E1")
	if err != nil {
		t.Fatal(err)
	}
	if !run.Pass || len(run.Result) == 0 {
		t.Errorf("E1 run = pass %v with %d result bytes, want a passing report", run.Pass, len(run.Result))
	}
	if _, err := c.RunExperiment(ctx, "E99"); err == nil {
		t.Error("unknown experiment id did not error")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	c := newTestClient(t)
	resp, err := c.Batch(context.Background(), &client.BatchRequest{Requests: []client.BatchItem{
		{Op: "analyze", Request: []byte(`{"pe":{"c":50e6,"io":1e6,"m":4096},"computation":{"name":"matmul"}}`)},
		{Op: "rebalance", Request: []byte(`{"computation":{"name":"fft"},"alpha":2,"m_old":1024}`)},
		{Op: "bogus", Request: []byte(`{}`)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Status != 200 || resp.Results[1].Status != 200 {
		t.Errorf("valid items got %d/%d, want 200/200", resp.Results[0].Status, resp.Results[1].Status)
	}
	if resp.Results[2].Status != 400 || resp.Results[2].Error == nil {
		t.Errorf("invalid op got %+v, want a 400 with an error body", resp.Results[2])
	}
}

func TestHealth(t *testing.T) {
	c := newTestClient(t)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Experiments != 16 {
		t.Errorf("health = %+v", h)
	}
}

// TestRetryOn503 exercises the retry option against a handler that fails
// twice before succeeding.
func TestRetryOn503(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"try later"}}`))
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1,"experiments":16}`))
	})
	c := client.NewFromHandler(h, client.WithRetryPolicy(client.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("handler saw %d calls, want 3", got)
	}
}

// TestNoRetryByDefault: without WithRetryPolicy a 503 surfaces immediately as an
// APIError.
func TestNoRetryByDefault(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"try later"}}`))
	})
	c := client.NewFromHandler(h)
	_, err := c.Health(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("handler saw %d calls, want 1", calls.Load())
	}
}

// TestRetryRespectsContext: a cancelled context stops the retry loop.
func TestRetryRespectsContext(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	c := client.NewFromHandler(h, client.WithRetryPolicy(client.RetryPolicy{Attempts: 100, Backoff: time.Hour}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("expected an error")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("retry loop ignored context cancellation")
	}
}

// TestDecodeAPIErrorFallback covers a non-envelope error body (e.g. a
// proxy's HTML page).
func TestDecodeAPIErrorFallback(t *testing.T) {
	raw := &client.Response{Status: 502, Header: http.Header{}, Body: []byte("<html>bad gateway</html>")}
	ae := client.DecodeAPIError(raw)
	if ae.Code != "http_error" || ae.Status != 502 {
		t.Errorf("fallback decode = %+v", ae)
	}
}

// newJobsTestClient binds a client to a jobs-enabled in-process server.
func newJobsTestClient(t *testing.T, opts ...client.Option) *client.Client {
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
	return client.NewFromHandler(srv.Handler(), opts...)
}

// TestJobRoundTrip drives the typed async API end to end: submit, wait,
// fetch the result, and check it equals the synchronous answer.
func TestJobRoundTrip(t *testing.T) {
	c := newJobsTestClient(t)
	ctx := context.Background()
	req := &client.SweepRequest{Kernel: "matmul", N: 64, Params: []int{4, 8}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(ctx, &client.JobSubmitRequest{Op: "sweep", Request: body})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Op != "sweep" {
		t.Fatalf("submitted job = %+v", j)
	}
	done, err := c.WaitForJob(ctx, j.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	raw, err := c.JobResult(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res client.SweepResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result is not a SweepResponse: %v\n%s", err, raw)
	}
	if res.Kernel != "matmul" || len(res.Points) != 2 {
		t.Errorf("async sweep result = %+v", res)
	}

	// The cross-check the async contract promises: the synchronous
	// endpoint on a fresh (cold-memo) server returns the same bytes.
	fresh := newTestClient(t)
	syncRaw, err := fresh.Do(ctx, http.MethodPost, "/v1/sweep", body)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(syncRaw.Body) {
		t.Errorf("async result differs from sync response:\nasync: %s\nsync:  %s", raw, syncRaw.Body)
	}

	// List and cancel/delete round out the surface.
	list, err := c.ListJobs(ctx, "done")
	if err != nil || len(list.Jobs) != 1 {
		t.Errorf("ListJobs(done) = %+v, %v", list, err)
	}
	del, err := c.CancelJob(ctx, j.ID)
	if err != nil || del.State != "deleted" {
		t.Errorf("CancelJob on a done job = %+v, %v (want deleted)", del, err)
	}
}

// TestJobResultNotReady: JobResult on a queued job decodes the 409
// envelope.
func TestJobResultNotReady(t *testing.T) {
	srv := server.New(server.Options{Parallelism: 1, StoreDir: t.TempDir(), JobWorkers: -1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	c := client.NewFromHandler(srv.Handler())
	ctx := context.Background()
	j, err := c.SubmitJob(ctx, &client.JobSubmitRequest{
		Op:      "sweep",
		Request: []byte(`{"kernel": "matmul", "n": 64, "params": [4]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.JobResult(ctx, j.ID)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Code != "not_done" {
		t.Fatalf("JobResult on a queued job = %v, want 409 not_done", err)
	}
	if _, err := c.GetJob(ctx, "jmissing"); err == nil {
		t.Error("GetJob on an unknown id did not error")
	}
}

// TestOverTCP runs the same client against a real listener, covering the
// socket transport path New configures.
func TestOverTCP(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Options{Parallelism: 2}).Handler())
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		PE:          client.PE{C: 50e6, IO: 1e6, M: 4096},
		Computation: client.Computation{Name: "matmul"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Computation != "matrix multiplication" {
		t.Errorf("analyze over TCP = %+v", a)
	}
}
