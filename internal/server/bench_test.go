package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"balarch/internal/obs"
)

// benchRequest drives one request through the full middleware stack and
// fails the bench on a non-200.
func benchRequest(b *testing.B, h http.Handler, method, path, body string) {
	b.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("%s %s: %d: %s", method, path, w.Code, w.Body.String())
	}
}

// benchWriter is a reusable ResponseWriter: the header map and body buffer
// persist across iterations so the harness itself contributes nothing to
// allocs/op beyond the header value slices the server sets.
type benchWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (w *benchWriter) Header() http.Header { return w.hdr }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *benchWriter) reset() {
	w.code = 0
	w.buf = w.buf[:0]
	clear(w.hdr)
}

// benchClient replays one fixed request with zero per-iteration setup: the
// request, its body reader, and the response writer are all reused, and
// X-Request-Id is preset so the id middleware takes the 0-alloc echo path.
// What the gated benchmarks then report is the server's own cost.
type benchClient struct {
	b    *testing.B
	h    http.Handler
	req  *http.Request
	body *bytes.Reader
	w    benchWriter
}

func newBenchClient(b *testing.B, h http.Handler, method, path, body string) *benchClient {
	br := bytes.NewReader([]byte(body))
	req := httptest.NewRequest(method, path, nil)
	req.Body = io.NopCloser(br)
	req.ContentLength = int64(len(body))
	req.Header.Set(RequestIDHeader, "bench-client")
	return &benchClient{b: b, h: h, req: req, body: br, w: benchWriter{hdr: make(http.Header)}}
}

func (c *benchClient) do() {
	c.body.Seek(0, io.SeekStart)
	c.w.reset()
	c.h.ServeHTTP(&c.w, c.req)
	if c.w.code != http.StatusOK {
		c.b.Fatalf("%s %s: %d: %s", c.req.Method, c.req.URL.Path, c.w.code, c.w.buf)
	}
}

// BenchmarkServerAnalyze measures the analytic hot path end to end:
// middleware, strict decode, the balanced-memory bisection, and JSON
// encode. This is the query a capacity planner issues per machine shape,
// so it must stay in the microsecond regime.
func BenchmarkServerAnalyze(b *testing.B) {
	s := New(Options{})
	h := s.Handler()
	body := `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`
	c := newBenchClient(b, h, "POST", "/v1/analyze", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do()
	}
}

// sweepBenchBody measures a kernel that executes for real — external sort
// generates and sorts m² keys per point — so the cold/cached pair exposes
// genuine kernel work, not just counting loops.
const sweepBenchBody = `{"kernel": "sort", "params": [64, 128, 256], "seed": 7}`

// BenchmarkServerSweepCold measures the uncached sweep path: every
// iteration runs the kernels afresh on a new server.
func BenchmarkServerSweepCold(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		benchRequest(b, s.Handler(), "POST", "/v1/sweep", sweepBenchBody)
	}
}

// BenchmarkServerSweepCached measures the steady-state sweep path: the
// memo absorbs every repeat, so iterations pay only decode + cache lookup
// + encode. Compare against BenchmarkServerSweepCold — the ratio is the
// cache's leverage (≥ 10× is the acceptance floor; measured ~500×).
func BenchmarkServerSweepCached(b *testing.B) {
	s := New(Options{})
	h := s.Handler()
	benchRequest(b, h, "POST", "/v1/sweep", sweepBenchBody) // warm the memo
	c := newBenchClient(b, h, "POST", "/v1/sweep", sweepBenchBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do()
	}
}

// BenchmarkServerAnalyzeHierarchy measures the hierarchy analyze path end
// to end: middleware, strict decode with the levels array, the per-boundary
// diagnosis, and JSON encode.
func BenchmarkServerAnalyzeHierarchy(b *testing.B) {
	s := New(Options{})
	h := s.Handler()
	body := `{"pe": {"c": 1e9}, "levels": [
		{"name": "sram", "bw": 4e9, "m": 1024},
		{"name": "dram", "bw": 1e9, "m": 262144},
		{"name": "disk", "bw": 1e6, "m": 67108864}],
		"computation": {"name": "matmul"}}`
	c := newBenchClient(b, h, "POST", "/v1/analyze", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do()
	}
}

// BenchmarkSweepLevel measures the analytic hierarchy level sweep cold:
// every iteration runs the 16-point capacity sweep afresh on a new server
// (decode, validation, the engine fan-out, per-point analysis, encode) —
// the hierarchy counterpart of BenchmarkServerSweepCold, regression-gated
// from day one.
func BenchmarkSweepLevel(b *testing.B) {
	body := `{"kernel": "hierarchy", "c": 8e6,
	  "levels": [{"bw": 1e6, "m": 16}, {"bw": 5e5, "m": 1048576}],
	  "computation": {"name": "sorting"},
	  "params": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288]}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		benchRequest(b, s.Handler(), "POST", "/v1/sweep", body)
	}
}

// BenchmarkPromExposition measures rendering GET /metrics?format=prometheus
// through the full stack: the route-slot drain, the stage histograms, and
// the append-style text encoder into a pooled buffer. The exposition is
// what a scraper pulls every few seconds in production, so its cost — and
// its allocation count, gated in CI — must stay flat as families grow.
func BenchmarkPromExposition(b *testing.B) {
	s := New(Options{})
	h := s.Handler()
	// Populate the registry so the exposition renders real series, not
	// the empty-server skeleton.
	benchRequest(b, h, "POST", "/v1/analyze",
		`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`)
	c := newBenchClient(b, h, "GET", "/metrics?format=prometheus", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do()
	}
}

// BenchmarkObserve measures one request's share of the always-on
// instrumentation: the route histogram and status class (Metrics.Observe)
// plus one stage histogram (StageSet.Observe) — lock-free atomics on the
// hot path of every request, gated in CI at zero allocations.
func BenchmarkObserve(b *testing.B) {
	s := New(Options{})
	m, st := s.Metrics(), s.Stages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe("POST /v1/analyze", http.StatusOK, 57*time.Microsecond)
		st.Observe(obs.StageCompute, 3*time.Microsecond)
	}
}

// BenchmarkTracedAnalyze measures the analyze hot path with every request
// captured: traceparent parse, span records from the pool, the stage
// spans, ring filing, and the response echo header. The delta against
// BenchmarkServerAnalyze is the full price of tracing a request — the
// head-sampled production path pays it on one request in N.
func BenchmarkTracedAnalyze(b *testing.B) {
	s := New(Options{TraceSampleEvery: 1})
	h := s.Handler()
	body := `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`
	c := newBenchClient(b, h, "POST", "/v1/analyze", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do()
	}
}

// BenchmarkServerBatch8 measures an 8-item heterogeneous batch through the
// pool fan-out.
func BenchmarkServerBatch8(b *testing.B) {
	s := New(Options{})
	h := s.Handler()
	items := []string{
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 2, "m_old": 1024}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "sorting"}, "alpha": 2, "m_old": 1024}}`,
		`{"op": "analyze", "request": {"pe": {"c": 10e6, "io": 20e6, "m": 65536}, "computation": {"name": "matmul"}}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "grid", "dim": 3}, "alpha": 2, "m_old": 4096}}`,
		`{"op": "analyze", "request": {"pe": {"c": 1e9, "io": 1e6, "m": 1048576}, "computation": {"name": "sorting"}}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "fft"}, "alpha": 3, "m_old": 256}}`,
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "matvec"}}}`,
	}
	body := `{"requests": [` + strings.Join(items, ",") + `]}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, h, "POST", "/v1/batch", body)
	}
}

// TestSweepCacheLeverage pins the acceptance floor deterministically: the
// cached path must not re-run kernel work (verified by the miss counter,
// not wall clock, so the test cannot flake on a loaded machine).
func TestSweepCacheLeverage(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	body := `{"kernel": "matmul", "n": 256, "params": [4, 8, 16, 32]}`
	for i := 0; i < 50; i++ {
		req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("iter %d: %d: %s", i, w.Code, w.Body.String())
		}
		var resp SweepResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if wantCached := i > 0; resp.Cached != wantCached {
			t.Fatalf("iter %d: cached = %v, want %v", i, resp.Cached, wantCached)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != 49 {
		t.Errorf("misses/hits = %d/%d, want 1/49: repeats must never re-run the kernels",
			snap.CacheMisses, snap.CacheHits)
	}
}
