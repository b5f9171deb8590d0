package server

// Byte goldens for the node's two metrics renderings, GET /metrics (JSON)
// and GET /metrics?format=prometheus, over a fixed registry state: store
// and queue open, two tenants, and fixed durations fed straight into the
// route, stage and tenant counters. Uptime is masked; the latency sums
// and means are compared to 1e-12 relative (they are float renderings of
// accumulated durations, and the accumulation order may change); every
// other byte is exact. Regenerate (only for a deliberate wire change) with
//
//	go test ./internal/server -run TestMetricsWireGolden -update

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"balarch/internal/obs"
)

// goldenMetricsServer builds a fresh server in the golden's fixed state.
// Each format gets its own server so neither scrape observes the other.
func goldenMetricsServer(t *testing.T) http.Handler {
	t.Helper()
	s := New(Options{StoreDir: t.TempDir(), JobWorkers: -1, Tenants: twoTenants()})
	m := s.Metrics()
	for _, o := range []struct {
		route  string
		status int
		d      time.Duration
	}{
		{"POST /v1/analyze", 200, 40 * time.Microsecond},
		{"POST /v1/analyze", 200, 100 * time.Microsecond}, // exactly on a bound
		{"POST /v1/analyze", 200, 100*time.Microsecond + 1},
		{"POST /v1/analyze", 200, 173 * time.Microsecond},
		{"POST /v1/analyze", 422, 250 * time.Microsecond},
		{"POST /v1/analyze", 400, 31 * time.Microsecond},
		{"POST /v1/analyze", 200, 3*time.Millisecond + 7},
		{"POST /v1/sweep", 200, 4 * time.Millisecond},
		{"POST /v1/sweep", 200, 77 * time.Millisecond},
		{"POST /v1/sweep", 200, 1500 * time.Millisecond},
		{"POST /v1/sweep", 503, 2500 * time.Millisecond}, // the 2.5 s bound
		{"POST /v1/sweep", 200, 12 * time.Second},        // overflow: p99 is the max
		{"GET /healthz", 200, 9 * time.Microsecond},
		{"GET /healthz", 200, 11 * time.Microsecond},
		{"(unmatched)", 404, 20 * time.Microsecond},
		{"(unknown_route)", 302, 600 * time.Microsecond},
		{"GET /not-preregistered", 200, 5 * time.Millisecond}, // counts as (unknown_route)
		{"POST /v1/roofline", 500, 333333 * time.Nanosecond},
		{"POST /v1/roofline", 200, 10 * time.Second},
		{"POST /v1/roofline", 700, 999999 * time.Microsecond},
	} {
		m.Observe(o.route, o.status, o.d)
	}
	st := s.Stages()
	for _, o := range []struct {
		stage obs.Stage
		d     time.Duration
	}{
		{obs.StageDecode, 3 * time.Microsecond},
		{obs.StageDecode, 7 * time.Microsecond},
		{obs.StageDecode, 120 * time.Microsecond},
		{obs.StageCacheLookup, 1 * time.Microsecond},
		{obs.StageCompute, 90 * time.Microsecond},
		{obs.StageCompute, 2 * time.Millisecond},
		{obs.StageCompute, 1200 * time.Millisecond},
		{obs.StageCompute, 11 * time.Second},
		{obs.StageEncode, 5 * time.Microsecond},
		{obs.StageAdmit, 240 * time.Microsecond},
		{obs.StageWALAppend, 310 * time.Microsecond},
		{obs.StageQueued, 25 * time.Millisecond},
		{obs.StageRun, 400 * time.Microsecond},
		{obs.StageStorePut, 330 * time.Microsecond},
		{obs.StagePublish, 12 * time.Microsecond},
	} {
		st.Observe(o.stage, o.d)
	}
	for i := 0; i < 3; i++ {
		m.TenantRequest("acme")
	}
	m.TenantRequest("globex")
	m.TenantRequest("nobody") // not configured: counts nowhere
	m.TenantRateLimited("acme")
	m.TenantOverBudget("globex")
	m.TenantOverBudget("globex")
	m.CacheHit()
	m.CacheMiss()
	m.CacheMiss()
	m.Panic()
	return s.Handler()
}

var (
	jsonUptimeRe = regexp.MustCompile(`"uptime_seconds": [^,\n]+`)
	jsonMeanRe   = regexp.MustCompile(`"(latency_)?mean_seconds": ([^,\n]+)`)
	promUptimeRe = regexp.MustCompile(`(?m)^balarch_uptime_seconds .*$`)
	promSumRe    = regexp.MustCompile(`(?m)^(balarch_[a-z_]+_sum(?:\{[^}]*\})?) (.+)$`)
)

// maskFloats replaces the last submatch of every re match with "~" and
// returns the masked text and the masked values in order.
func maskFloats(t *testing.T, text string, re *regexp.Regexp) (string, []float64) {
	t.Helper()
	var vals []float64
	masked := re.ReplaceAllStringFunc(text, func(m string) string {
		sub := re.FindStringSubmatchIndex(m)
		lo, hi := sub[len(sub)-2], sub[len(sub)-1]
		v, err := strconv.ParseFloat(m[lo:hi], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", m, err)
		}
		vals = append(vals, v)
		return m[:lo] + "~" + m[hi:]
	})
	return masked, vals
}

// TestMetricsWireGolden pins both /metrics renderings of a fixed state
// against testdata/metrics.json.golden and testdata/metrics.prom.golden.
func TestMetricsWireGolden(t *testing.T) {
	for _, c := range []struct {
		file, path string
		uptime     *regexp.Regexp
		floats     *regexp.Regexp
		uptimeMask string
	}{
		{"metrics.json.golden", "/metrics", jsonUptimeRe, jsonMeanRe, `"uptime_seconds": ~`},
		{"metrics.prom.golden", "/metrics?format=prometheus", promUptimeRe, promSumRe, "balarch_uptime_seconds ~"},
	} {
		t.Run(c.file, func(t *testing.T) {
			w := do(goldenMetricsServer(t), http.MethodGet, c.path, "")
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s: %d\n%s", c.path, w.Code, w.Body.String())
			}
			got := c.uptime.ReplaceAllLiteralString(w.Body.String(), c.uptimeMask)
			path := filepath.Join("testdata", c.file)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			gotMasked, gotVals := maskFloats(t, got, c.floats)
			wantMasked, wantVals := maskFloats(t, string(raw), c.floats)
			if len(gotVals) != len(wantVals) {
				t.Fatalf("%d latency sums/means rendered, golden has %d", len(gotVals), len(wantVals))
			}
			for i, want := range wantVals {
				if d := math.Abs(gotVals[i] - want); d > 1e-12*math.Abs(want) {
					t.Errorf("latency sum/mean #%d = %v, golden %v", i, gotVals[i], want)
				}
			}
			gl, wl := strings.Split(gotMasked, "\n"), strings.Split(wantMasked, "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("line %d drifted:\n got: %q\nwant: %q", i+1, g, w)
				}
			}
		})
	}
}
