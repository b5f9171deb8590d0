package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"balarch/internal/obs"
)

// The strict text-format (0.0.4) line parser the acceptance criteria
// call for: every line of the exposition must be a HELP comment, a TYPE
// comment, or a well-formed sample; HELP precedes TYPE precedes samples
// within a family; sample names belong to the declared family (directly,
// or via the _bucket/_sum/_count suffixes of a histogram); counters end
// in _total; histogram buckets are cumulative over ascending le bounds
// ending at +Inf, with _count equal to the +Inf bucket. Anything a real
// Prometheus scraper would reject fails the test.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// labelKey renders the label set canonically (sorted, le excluded when
// excludeLe) for grouping and duplicate detection.
func (s promSample) labelKey(excludeLe bool) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if excludeLe && k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(s.labels[k]))
		b.WriteByte(',')
	}
	return b.String()
}

// parsePromStrict validates body line by line and returns the samples
// grouped by family name along with each family's declared type.
func parsePromStrict(t *testing.T, body string) (map[string][]promSample, map[string]string) {
	t.Helper()
	if body == "" || !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition must be newline-terminated and non-empty")
	}
	var (
		families = map[string]string{} // name → type
		helped   = map[string]bool{}
		samples  = map[string][]promSample{}
		current  string // family of the open HELP/TYPE block
		seen     = map[string]bool{}
	)
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: "+format, append([]any{ln + 1, line}, args...)...)
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				fail("HELP without text")
			}
			if !metricNameRe.MatchString(name) {
				fail("bad metric name %q", name)
			}
			if helped[name] {
				fail("duplicate HELP for %q", name)
			}
			helped[name] = true
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				fail("TYPE without a type")
			}
			if name != current || !helped[name] {
				fail("TYPE not immediately preceded by its HELP (current family %q)", current)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				fail("unknown type %q", typ)
			}
			if _, dup := families[name]; dup {
				fail("duplicate TYPE for %q", name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				fail("counter %q does not end in _total", name)
			}
			families[name] = typ
		case strings.HasPrefix(line, "#"):
			fail("stray comment")
		default:
			s := parseSampleLine(t, ln+1, line)
			typ, declared := families[current]
			if !declared {
				fail("sample before any TYPE declaration")
			}
			base := s.name
			if typ == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if s.name == current+suf {
						base = current
					}
				}
			}
			if base != current {
				fail("sample %q outside the open family %q", s.name, current)
			}
			key := s.name + "{" + s.labelKey(false) + "}"
			if seen[key] {
				fail("duplicate series %q", key)
			}
			seen[key] = true
			samples[current] = append(samples[current], s)
		}
	}
	// Histogram invariants, per family and label set.
	for name, typ := range families {
		if typ != "histogram" {
			continue
		}
		checkHistogram(t, name, samples[name])
	}
	return samples, families
}

// parseSampleLine parses `name{label="value",...} value` strictly.
func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		t.Fatalf("line %d %q: no value", ln, line)
	}
	s.name = rest[:end]
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad sample name %q", ln, s.name)
	}
	if !strings.HasPrefix(s.name, "balarch_") {
		t.Fatalf("line %d: sample %q missing the balarch_ namespace", ln, s.name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				t.Fatalf("line %d %q: unterminated label block", ln, line)
			}
			lname := rest[:eq]
			if !labelNameRe.MatchString(lname) {
				t.Fatalf("line %d: bad label name %q", ln, lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				t.Fatalf("line %d %q: unquoted label value", ln, line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d %q: unterminated label value", ln, line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					switch rest[0] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d %q: bad escape \\%c", ln, line, rest[0])
					}
					rest = rest[1:]
					continue
				}
				val.WriteByte(c)
			}
			if _, dup := s.labels[lname]; dup {
				t.Fatalf("line %d: duplicate label %q", ln, lname)
			}
			s.labels[lname] = val.String()
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d %q: junk after label value", ln, line)
		}
	}
	if rest == "" || rest[0] != ' ' {
		t.Fatalf("line %d %q: missing space before value", ln, line)
	}
	v, err := strconv.ParseFloat(rest[1:], 64)
	if err != nil {
		t.Fatalf("line %d %q: bad value: %v", ln, line, err)
	}
	s.value = v
	return s
}

// checkHistogram asserts the bucket invariants for every label set of
// one histogram family.
func checkHistogram(t *testing.T, name string, samples []promSample) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		sum    *float64
		count  *float64
	}
	groups := map[string]*series{}
	get := func(s promSample) *series {
		k := s.labelKey(true)
		if groups[k] == nil {
			groups[k] = &series{}
		}
		return groups[k]
	}
	for _, s := range samples {
		g := get(s)
		switch s.name {
		case name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket without le: %s", name, s.line)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", name, le)
			}
			g.les = append(g.les, bound)
			g.counts = append(g.counts, s.value)
		case name + "_sum":
			v := s.value
			g.sum = &v
		case name + "_count":
			v := s.value
			g.count = &v
		}
	}
	for k, g := range groups {
		if g.sum == nil || g.count == nil || len(g.les) == 0 {
			t.Fatalf("%s{%s}: incomplete histogram (buckets %d, sum %v, count %v)",
				name, k, len(g.les), g.sum, g.count)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				t.Errorf("%s{%s}: le bounds not ascending at %v", name, k, g.les[i])
			}
			if g.counts[i] < g.counts[i-1] {
				t.Errorf("%s{%s}: buckets not cumulative at le=%v", name, k, g.les[i])
			}
		}
		last := len(g.les) - 1
		if !math.IsInf(g.les[last], 1) {
			t.Errorf("%s{%s}: last bucket le=%v, want +Inf", name, k, g.les[last])
		}
		if g.counts[last] != *g.count {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", name, k, g.counts[last], *g.count)
		}
	}
}

// series digs one sample out of the parse by exact sample name (so
// "family_count" addresses a histogram's count series) and label match.
func series(t *testing.T, samples map[string][]promSample, name string, labels map[string]string) float64 {
	t.Helper()
	for _, fam := range samples {
	next:
		for _, s := range fam {
			if s.name != name {
				continue
			}
			for k, v := range labels {
				if s.labels[k] != v {
					continue next
				}
			}
			return s.value
		}
	}
	t.Fatalf("no series %s%v", name, labels)
	return 0
}

// promBody drives GET /metrics?format=prometheus and returns the text.
func promBody(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if w.Code != 200 {
		t.Fatalf("prometheus exposition: %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	return w.Body.String()
}

// TestPromExpositionStrict runs the full-stack exposition — store, jobs,
// and tenancy all configured — through the strict parser and checks the
// load-bearing families came out.
func TestPromExpositionStrict(t *testing.T) {
	_, h := newTestHandler(Options{
		StoreDir:   t.TempDir(),
		JobWorkers: -1,
		Tenants:    twoTenants(),
	})
	// Traffic: two analyzes (one tenanted), a sweep pair (miss then
	// memo hit), and a 400 — so counters, histograms, stage profile,
	// cache counters, and status classes all have observations.
	doAs(t, h, "acme-key", "POST", "/v1/analyze", analyzeBody)
	doAs(t, h, "", "POST", "/v1/analyze", analyzeBody)
	sweep := `{"kernel": "matmul", "n": 64, "params": [4, 8]}`
	doAs(t, h, "", "POST", "/v1/sweep", sweep)
	doAs(t, h, "", "POST", "/v1/sweep", sweep)
	doAs(t, h, "", "POST", "/v1/analyze", "{")

	samples, families := parsePromStrict(t, promBody(t, h))

	for name, typ := range map[string]string{
		"balarch_uptime_seconds":          "gauge",
		"balarch_in_flight_requests":      "gauge",
		"balarch_requests_total":          "counter",
		"balarch_responses_total":         "counter",
		"balarch_panics_recovered_total":  "counter",
		"balarch_request_latency_seconds": "histogram",
		"balarch_route_latency_seconds":   "histogram",
		"balarch_stage_latency_seconds":   "histogram",
		"balarch_sweep_cache_hits_total":  "counter",
		"balarch_store_hits_total":        "counter",
		"balarch_store_entries":           "gauge",
		"balarch_jobs":                    "gauge",
		"balarch_jobs_sched_info":         "gauge",
		"balarch_tenant_requests_total":   "counter",
	} {
		if families[name] != typ {
			t.Errorf("family %s: type %q, want %q", name, families[name], typ)
		}
	}

	if got := series(t, samples, "balarch_requests_total", map[string]string{"route": "POST /v1/analyze"}); got != 3 {
		t.Errorf("analyze requests_total = %v, want 3", got)
	}
	if got := series(t, samples, "balarch_responses_total", map[string]string{"class": "4xx"}); got != 1 {
		t.Errorf("4xx responses_total = %v, want 1", got)
	}
	if got := series(t, samples, "balarch_sweep_cache_hits_total", nil); got != 1 {
		t.Errorf("sweep cache hits = %v, want 1", got)
	}
	if got := series(t, samples, "balarch_tenant_requests_total", map[string]string{"tenant": "acme"}); got != 1 {
		t.Errorf("acme requests_total = %v, want 1", got)
	}
	// The stage profile: decode and compute saw the two good analyzes
	// plus the cold sweep at least.
	for _, stage := range []string{"decode", "compute", "encode", "cache_lookup"} {
		if got := series(t, samples, "balarch_stage_latency_seconds_count", map[string]string{"stage": stage}); got < 1 {
			t.Errorf("stage %s count = %v, want ≥ 1", stage, got)
		}
	}
	if got := series(t, samples, "balarch_jobs", map[string]string{"state": "queued"}); got != 0 {
		t.Errorf("queued jobs = %v, want 0", got)
	}
}

// TestPromExpositionMinimal: with no store, no queue, and no tenants the
// exposition still parses strictly and simply lacks those families —
// the per-series contract, in contrast to the config-independent JSON.
func TestPromExpositionMinimal(t *testing.T) {
	_, h := newTestHandler(Options{})
	doJSON(t, h, "GET", "/healthz", "")
	samples, families := parsePromStrict(t, promBody(t, h))
	if _, ok := families["balarch_uptime_seconds"]; !ok {
		t.Error("missing balarch_uptime_seconds")
	}
	for _, absent := range []string{"balarch_store_hits_total", "balarch_jobs", "balarch_tenant_requests_total"} {
		if len(samples[absent]) != 0 {
			t.Errorf("family %s present on a minimal server", absent)
		}
	}
}

// TestPromJSONConsistency: the exposition and the pinned JSON snapshot
// must agree — same registry, two syntaxes. Compared on series the
// metrics fetches themselves cannot move.
func TestPromJSONConsistency(t *testing.T) {
	_, h := newTestHandler(Options{StoreDir: t.TempDir(), JobWorkers: -1, Tenants: twoTenants()})
	doAs(t, h, "acme-key", "POST", "/v1/analyze", analyzeBody)
	sweep := `{"kernel": "matmul", "n": 32, "params": [2, 4]}`
	doAs(t, h, "", "POST", "/v1/sweep", sweep)
	doAs(t, h, "", "POST", "/v1/sweep", sweep)

	samples, _ := parsePromStrict(t, promBody(t, h))
	_, decoded := doJSON(t, h, "GET", "/metrics", "")

	reqs := decoded["requests_total"].(map[string]any)
	for _, route := range []string{"POST /v1/analyze", "POST /v1/sweep"} {
		if got, want := series(t, samples, "balarch_requests_total", map[string]string{"route": route}), reqs[route].(float64); got != want {
			t.Errorf("%s: prom %v != json %v", route, got, want)
		}
	}
	if got, want := series(t, samples, "balarch_sweep_cache_hits_total", nil), decoded["sweep_cache_hits"].(float64); got != want {
		t.Errorf("cache hits: prom %v != json %v", got, want)
	}
	if got, want := series(t, samples, "balarch_sweep_cache_misses_total", nil), decoded["sweep_cache_misses"].(float64); got != want {
		t.Errorf("cache misses: prom %v != json %v", got, want)
	}
	if got, want := series(t, samples, "balarch_store_entries", nil), decoded["store_entries"].(float64); got != want {
		t.Errorf("store entries: prom %v != json %v", got, want)
	}
	ten := decoded["tenants"].(map[string]any)["acme"].(map[string]any)
	if got, want := series(t, samples, "balarch_tenant_requests_total", map[string]string{"tenant": "acme"}), ten["requests_total"].(float64); got != want {
		t.Errorf("acme requests: prom %v != json %v", got, want)
	}
}

// TestMetricsFormatFallback: an unknown format keeps the JSON body — the
// prometheus branch is opt-in by exact value.
func TestMetricsFormatFallback(t *testing.T) {
	_, h := newTestHandler(Options{})
	w, decoded := doJSON(t, h, "GET", "/metrics?format=bogus", "")
	if w.Code != 200 || decoded["uptime_seconds"] == nil {
		t.Fatalf("format=bogus: %d, body %s", w.Code, w.Body.String())
	}
	if !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		t.Errorf("format=bogus Content-Type = %q, want JSON", w.Header().Get("Content-Type"))
	}
}

// TestPromStatusClassesOneSeriesEach: status classes outside 2xx–5xx all
// count as "other", and the exposition carries one series per class name
// — two distinct odd classes must not render two "other" samples, which a
// scraper rejects as a duplicate series.
func TestPromStatusClassesOneSeriesEach(t *testing.T) {
	s, h := newTestHandler(Options{})
	s.Metrics().Observe("GET /healthz", 101, time.Millisecond)
	s.Metrics().Observe("GET /healthz", 700, time.Millisecond)
	s.Metrics().Observe("GET /healthz", 200, time.Millisecond)
	samples, _ := parsePromStrict(t, promBody(t, h))
	if got := series(t, samples, "balarch_responses_total", map[string]string{"class": "other"}); got != 2 {
		t.Errorf("other responses_total = %v, want 2", got)
	}
	_, decoded := doJSON(t, h, "GET", "/metrics", "")
	if got := decoded["responses_by_status_class"].(map[string]any)["other"]; got != 2.0 {
		t.Errorf("JSON other = %v, want 2", got)
	}
}
