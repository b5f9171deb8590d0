package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// twoTenants is the config most tenancy tests run under: a throttled
// tenant with a job budget, and an unthrottled one.
func twoTenants() *TenantsConfig {
	return &TenantsConfig{Tenants: []TenantSpec{
		{Name: "acme", Key: "acme-key", RatePerSec: 1, Burst: 2, JobBudgetBytes: 128 << 10},
		{Name: "globex", Key: "globex-key"},
	}}
}

// doAs drives one request with a bearer key.
func doAs(t *testing.T, h http.Handler, key, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestParseTenantsConfig(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{
		"tenants": [
			{"name": "acme", "key": "k1", "rate_per_sec": 10, "burst": 20, "job_budget_bytes": 1024},
			{"name": "globex", "key": "k2"}
		],
		"anonymous": {"rate_per_sec": 5}
	}`))
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[0].Name != "acme" || cfg.Anonymous.RatePerSec != 5 {
		t.Fatalf("config parsed wrong: %+v", cfg)
	}

	bad := []struct {
		name, in, wantPos, wantField string
	}{
		{"not json", `{`, "file", ""},
		{"trailing data", `{"tenants": []} extra`, "file", ""},
		{"unknown field", `{"tenantz": []}`, "file", ""},
		{"missing name", `{"tenants": [{"key": "k"}]}`, "tenants[0]", "name"},
		{"missing key", `{"tenants": [{"name": "a"}]}`, "tenants[0]", "key"},
		{"reserved name", `{"tenants": [{"name": "anonymous", "key": "k"}]}`, "tenants[0]", "name"},
		{"bad name byte", `{"tenants": [{"name": "a b", "key": "k"}]}`, "tenants[0]", "name"},
		{"dup name", `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`, "tenants[1]", "name"},
		{"dup key", `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`, "tenants[1]", "key"},
		{"key with space", `{"tenants": [{"name": "a", "key": "k k"}]}`, "tenants[0]", "key"},
		{"negative rate", `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": -1}]}`, "tenants[0]", "rate_per_sec"},
		{"huge rate", `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1e12}]}`, "tenants[0]", "rate_per_sec"},
		{"burst without rate", `{"tenants": [{"name": "a", "key": "k", "burst": 5}]}`, "tenants[0]", "burst"},
		{"negative budget", `{"tenants": [{"name": "a", "key": "k", "job_budget_bytes": -1}]}`, "tenants[0]", "job_budget_bytes"},
		{"anonymous with key", `{"anonymous": {"key": "k"}}`, "anonymous", "key"},
		{"anonymous wrong name", `{"anonymous": {"name": "acme"}}`, "anonymous", "name"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTenantsConfig([]byte(tc.in))
			cfgErr, ok := err.(*TenantConfigError)
			if !ok {
				t.Fatalf("want *TenantConfigError, got %v", err)
			}
			if cfgErr.Pos != tc.wantPos || (tc.wantField != "" && cfgErr.Field != tc.wantField) {
				t.Errorf("error located at %s/%s, want %s/%s (%v)",
					cfgErr.Pos, cfgErr.Field, tc.wantPos, tc.wantField, cfgErr)
			}
		})
	}
}

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(0, 0)
	b := newTokenBucket(2, 3, t0) // 2 tokens/s, depth 3, starts full
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("take %d from a full bucket refused", i)
		}
	}
	ok, retry := b.take(t0)
	if ok {
		t.Fatal("4th take from a depth-3 bucket admitted")
	}
	// Empty at 2 tokens/s: the next token exists in 0.5s.
	if retry != 500*time.Millisecond {
		t.Fatalf("retry = %v, want 500ms", retry)
	}
	// One second later two tokens refilled.
	t1 := t0.Add(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t1); !ok {
			t.Fatalf("take %d after refill refused", i)
		}
	}
	if ok, _ := b.take(t1); ok {
		t.Fatal("bucket over-refilled")
	}
	// Refill clamps at burst, not beyond.
	t2 := t1.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(t2); !ok {
			t.Fatalf("take %d after long idle refused", i)
		}
	}
	if ok, _ := b.take(t2); ok {
		t.Fatal("bucket refilled past its burst")
	}

	// Default burst is max(rate, 1): a 0.5/s bucket still admits one.
	slow := newTokenBucket(0.5, 0, t0)
	if slow.burst != 1 {
		t.Fatalf("default burst = %v, want 1", slow.burst)
	}
}

func TestTenancyResolution(t *testing.T) {
	_, h := newTestHandler(Options{Tenants: twoTenants()})
	const analyze = `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`

	// No header: anonymous, unthrottled by this config.
	if w := doAs(t, h, "", http.MethodPost, "/v1/analyze", analyze); w.Code != 200 {
		t.Fatalf("anonymous analyze: %d\n%s", w.Code, w.Body.String())
	}
	// Malformed Authorization.
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(analyze))
	req.Header.Set("Authorization", "Basic dXNlcg==")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 401 || !strings.Contains(w.Body.String(), "bad_authorization") {
		t.Fatalf("malformed auth: %d\n%s", w.Code, w.Body.String())
	}
	// Unknown key.
	if w := doAs(t, h, "nope", http.MethodPost, "/v1/analyze", analyze); w.Code != 401 ||
		!strings.Contains(w.Body.String(), "unknown_api_key") {
		t.Fatalf("unknown key: %d\n%s", w.Code, w.Body.String())
	}
	// Known key.
	if w := doAs(t, h, "globex-key", http.MethodPost, "/v1/analyze", analyze); w.Code != 200 {
		t.Fatalf("globex analyze: %d\n%s", w.Code, w.Body.String())
	}
}

func TestTenantRateLimit(t *testing.T) {
	_, h := newTestHandler(Options{Tenants: twoTenants()})
	// acme: 1/s with burst 2 — two requests pass, the third draws 429.
	for i := 0; i < 2; i++ {
		if w := doAs(t, h, "acme-key", http.MethodGet, "/v1/catalog", ""); w.Code != 200 {
			t.Fatalf("burst request %d: %d", i, w.Code)
		}
	}
	w := doAs(t, h, "acme-key", http.MethodGet, "/v1/catalog", "")
	if w.Code != 429 || !strings.Contains(w.Body.String(), "rate_limited") {
		t.Fatalf("3rd request: %d\n%s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive integer", ra)
	}
	// Probes bypass the bucket even for a throttled tenant.
	for _, path := range []string{"/healthz", "/metrics"} {
		if w := doAs(t, h, "acme-key", http.MethodGet, path, ""); w.Code != 200 {
			t.Fatalf("throttled tenant's %s probe: %d", path, w.Code)
		}
	}
	// The other tenant and anonymous traffic are unaffected.
	if w := doAs(t, h, "globex-key", http.MethodGet, "/v1/catalog", ""); w.Code != 200 {
		t.Fatalf("globex while acme throttled: %d", w.Code)
	}
	if w := doAs(t, h, "", http.MethodGet, "/v1/catalog", ""); w.Code != 200 {
		t.Fatalf("anonymous while acme throttled: %d", w.Code)
	}
}

func TestTenantJobBudgetPartition(t *testing.T) {
	// Paused workers keep the roomy job live, so the anonymous submit
	// joins it (202) instead of finding it done (200).
	srv := newJobsServer(t, Options{JobWorkers: -1, Tenants: &TenantsConfig{Tenants: []TenantSpec{
		// Budget below one sweep's cost: every submit is refused.
		{Name: "tiny", Key: "tiny-key", JobBudgetBytes: 1024},
		{Name: "roomy", Key: "roomy-key"},
	}}})
	h := srv.Handler()
	body := `{"op": "sweep", "request": {"kernel": "matmul", "n": 32, "params": [2, 4]}}`

	w := doAs(t, h, "tiny-key", http.MethodPost, "/v1/jobs", body)
	if w.Code != 429 || !strings.Contains(w.Body.String(), `tenant \"tiny\"'s`) {
		t.Fatalf("tiny submit: %d\n%s", w.Code, w.Body.String())
	}
	// The partition is per tenant: the same job admits for an
	// unbudgeted tenant, and for anonymous callers.
	if w := doAs(t, h, "roomy-key", http.MethodPost, "/v1/jobs", body); w.Code != 202 {
		t.Fatalf("roomy submit: %d\n%s", w.Code, w.Body.String())
	}
	if w := doAs(t, h, "", http.MethodPost, "/v1/jobs", body); w.Code != 202 {
		t.Fatalf("anonymous submit: %d\n%s", w.Code, w.Body.String())
	}

	// The refusal shows up in the tenant's /metrics slice.
	snap := metricsSnapshot(t, h)
	if got := snap.Tenants["tiny"].OverBudget; got != 1 {
		t.Fatalf("tiny over_budget_total = %d, want 1", got)
	}
	if got := snap.Tenants["tiny"].JobMemBudget; got != 1024 {
		t.Fatalf("tiny job_mem_budget_bytes = %d, want 1024", got)
	}
}

func metricsSnapshot(t *testing.T, h http.Handler) *Snapshot {
	t.Helper()
	w := doAs(t, h, "", http.MethodGet, "/metrics", "")
	if w.Code != 200 {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return &snap
}

func TestTenantMetricsBoundedCardinality(t *testing.T) {
	_, h := newTestHandler(Options{Tenants: twoTenants()})
	doAs(t, h, "globex-key", http.MethodGet, "/v1/catalog", "")
	doAs(t, h, "globex-key", http.MethodGet, "/v1/catalog", "")
	// Unknown keys are refused before any accounting: an attacker
	// spraying keys must not mint metric slices.
	for i := 0; i < 50; i++ {
		doAs(t, h, fmt.Sprintf("spray-%d", i), http.MethodGet, "/v1/catalog", "")
	}
	snap := metricsSnapshot(t, h)
	if len(snap.Tenants) != 3 {
		t.Fatalf("tenant slices = %d (%v), want exactly the 3 configured",
			len(snap.Tenants), snap.Tenants)
	}
	if got := snap.Tenants["globex"].Requests; got != 2 {
		t.Errorf("globex requests_total = %d, want 2", got)
	}
	if snap.Tenants["anonymous"].Requests == 0 {
		t.Error("anonymous slice missing its /metrics probe requests")
	}
	// Route attribution must survive the tenancy middleware: it serves
	// the mux a shallow-copied request (WithContext), and if the matched
	// pattern is not mirrored back, every request lands in "(unmatched)"
	// and the soak's /metrics cross-check loses all its histograms.
	if rl, ok := snap.RouteLatency["GET /v1/catalog"]; !ok || rl.Count != 2 {
		t.Errorf("tenanted route histogram GET /v1/catalog = %+v (present %v), want count 2", rl, ok)
	}
	// The 50 refused sprays never reached the mux: they are the only
	// legitimate "(unmatched)" traffic.
	if rl := snap.RouteLatency["(unmatched)"]; rl.Count != 50 {
		t.Errorf("(unmatched) count = %d, want exactly the 50 refused sprays", rl.Count)
	}

	// Untenanted servers keep the old schema: no tenants key at all.
	_, plain := newTestHandler(Options{})
	w := doAs(t, plain, "", http.MethodGet, "/metrics", "")
	if strings.Contains(w.Body.String(), `"tenants"`) {
		t.Fatal("untenanted /metrics grew a tenants key")
	}
}

func TestNewPanicsOnInvalidTenants(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a hand-built invalid TenantsConfig")
		}
	}()
	New(Options{Tenants: &TenantsConfig{Tenants: []TenantSpec{{Name: "no-key"}}}})
}

// TestUntenantedByteIdentity pins exact response bytes on an untenanted
// server: with no tenants config, this PR's traffic layer must be
// invisible — the bodies below were captured from the API before tenancy
// existed, and any drift is a wire-compat break.
func TestUntenantedByteIdentity(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	golden := []struct {
		name, method, path, body string
		status                   int
		want                     string
	}{
		{"analyze", http.MethodPost, "/v1/analyze",
			`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`, 200,
			"{\n  \"computation\": \"fast Fourier transform\",\n  \"section\": \"§3.4\",\n  \"pe\": {\n    \"c\": 50000000,\n    \"io\": 1000000,\n    \"m\": 4096\n  },\n  \"intensity\": 50,\n  \"achievable_ratio\": 30,\n  \"state\": \"io-bound\",\n  \"balanced_memory\": 1048576,\n  \"rebalanceable\": true,\n  \"law\": \"M_new = M_old^α\"\n}\n"},
		{"bad json", http.MethodPost, "/v1/analyze", `{`, 400,
			"{\n  \"error\": {\n    \"code\": \"bad_json\",\n    \"message\": \"unexpected EOF\"\n  }\n}\n"},
		{"empty job list", http.MethodGet, "/v1/jobs", "", 200,
			"{\n  \"jobs\": []\n}\n"},
		{"unknown route", http.MethodGet, "/v1/nope", "", 404,
			"{\n  \"error\": {\n    \"code\": \"unknown_route\",\n    \"message\": \"no route matches GET /v1/nope (unknown path, or wrong method for a known one)\"\n  }\n}\n"},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			w := doAs(t, h, "", g.method, g.path, g.body)
			if w.Code != g.status {
				t.Fatalf("status %d, want %d", w.Code, g.status)
			}
			if got := w.Body.String(); got != g.want {
				t.Errorf("response bytes drifted:\ngot:  %q\nwant: %q", got, g.want)
			}
		})
	}

	// The job-submit ack has one dynamic field; pin everything else.
	w := doAs(t, h, "", http.MethodPost, "/v1/jobs",
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`)
	if w.Code != 202 {
		t.Fatalf("job submit: %d\n%s", w.Code, w.Body.String())
	}
	got := regexp.MustCompile(`"submitted_at": "[^"]+"`).
		ReplaceAllString(w.Body.String(), `"submitted_at": "T"`)
	want := "{\n  \"id\": \"j63c0cc9141bf9714\",\n  \"op\": \"analyze\",\n  \"state\": \"queued\",\n  \"cost_bytes\": 65536,\n  \"submitted_at\": \"T\"\n}\n"
	if got != want {
		t.Errorf("job ack drifted:\ngot:  %q\nwant: %q", got, want)
	}
}

// FuzzTenantConfig pins the parser's contract: any byte slice maps to a
// valid config or a *TenantConfigError — never a panic, and a config
// that parses must also survive New.
func FuzzTenantConfig(f *testing.F) {
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 2}]}`))
	f.Add([]byte(`{"anonymous": {"rate_per_sec": 1, "burst": 3}}`))
	f.Add([]byte(`{"tenants": []}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"tenants": [{"name": "anonymous", "key": "k"}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1e99}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseTenantsConfig(data)
		if err != nil {
			if _, ok := err.(*TenantConfigError); !ok {
				t.Fatalf("error is %T, want *TenantConfigError: %v", err, err)
			}
			return
		}
		// A config the parser accepts must be servable.
		s := New(Options{Tenants: cfg})
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if w.Code != 200 {
			t.Fatalf("healthz on a parsed config: %d", w.Code)
		}
	})
}
