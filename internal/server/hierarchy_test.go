package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postJSON drives one request through a fresh handler and decodes the body.
func postJSON(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.Bytes()
}

// threeLevelBody is the test stack: 1 GOPS over sram → dram → disk.
const threeLevelBody = `"pe": {"c": 1e9},
	"levels": [
		{"name": "sram", "bw": 4e9, "m": 1024},
		{"name": "dram", "bw": 1e9, "m": 262144},
		{"name": "disk", "bw": 1e5, "m": 67108864}
	]`

func TestAnalyzeHierarchyEndpoint(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := postJSON(t, h, "POST", "/v1/analyze",
		`{`+threeLevelBody+`, "computation": {"name": "matmul"}}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Boundaries) != 3 || len(resp.Levels) != 3 {
		t.Fatalf("boundaries/levels = %d/%d, want 3/3", len(resp.Boundaries), len(resp.Levels))
	}
	// The disk boundary binds: intensity 10⁴ against R ≈ 8207.
	if resp.BindingBoundary != 3 || resp.State != "io-bound" {
		t.Errorf("binding %d state %s, want 3 io-bound", resp.BindingBoundary, resp.State)
	}
	// Inner boundaries are compute bound; the per-boundary states say so.
	if resp.Boundaries[0].State != "compute-bound" || resp.Boundaries[1].State != "compute-bound" {
		t.Errorf("inner states = %s/%s", resp.Boundaries[0].State, resp.Boundaries[1].State)
	}
	// Flat fields describe the binding boundary as an effective PE.
	bind := resp.Boundaries[2]
	if resp.PE.IO != bind.BW || resp.PE.M != bind.CapacityWithin ||
		resp.Intensity != bind.Intensity || resp.BalancedMemory != bind.BalancedMemory {
		t.Errorf("flat fields don't mirror the binding boundary: %+v vs %+v", resp, bind)
	}
	if math.Abs(bind.BalancedMemory-1e8)/1e8 > 1e-6 {
		t.Errorf("binding balanced memory = %v, want 1e8", bind.BalancedMemory)
	}
}

// TestAnalyzeFlatResponseHasNoHierarchyKeys pins wire compatibility: the
// one-level (flat) request's response must not grow any of the new keys.
func TestAnalyzeFlatResponseHasNoHierarchyKeys(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := postJSON(t, h, "POST", "/v1/analyze",
		`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	for _, key := range []string{"levels", "boundaries", "binding_boundary"} {
		if strings.Contains(string(body), `"`+key+`"`) {
			t.Errorf("flat response leaked hierarchy key %q:\n%s", key, body)
		}
	}
}

func TestHierarchyTyped422s(t *testing.T) {
	h := New(Options{}).Handler()
	cases := []struct {
		name, path, body, code string
	}{
		{"non-monotone analyze", "/v1/analyze",
			`{"pe": {"c": 1e9}, "levels": [{"bw": 1e6, "m": 64}, {"bw": 2e6, "m": 256}], "computation": {"name": "fft"}}`,
			"non_monotone_hierarchy"},
		{"levels with flat io", "/v1/analyze",
			`{"pe": {"c": 1e9, "io": 1e6}, "levels": [{"bw": 1e6, "m": 64}], "computation": {"name": "fft"}}`,
			"invalid_argument"},
		{"too many levels", "/v1/analyze",
			`{"pe": {"c": 1e9}, "levels": [{"bw": 9e6, "m": 1}, {"bw": 8e6, "m": 1}, {"bw": 7e6, "m": 1}, {"bw": 6e6, "m": 1}, {"bw": 5e6, "m": 1}, {"bw": 4e6, "m": 1}, {"bw": 3e6, "m": 1}, {"bw": 2e6, "m": 1}, {"bw": 1e6, "m": 1}], "computation": {"name": "fft"}}`,
			"invalid_argument"},
		{"rebalance m_old with levels", "/v1/rebalance",
			`{"computation": {"name": "fft"}, "alpha": 2, "m_old": 64, "c": 1e9, "levels": [{"bw": 1e6, "m": 64}]}`,
			"invalid_argument"},
		{"rebalance c without levels", "/v1/rebalance",
			`{"computation": {"name": "fft"}, "alpha": 2, "m_old": 64, "c": 1e9}`,
			"invalid_argument"},
		{"non-monotone rebalance", "/v1/rebalance",
			`{"computation": {"name": "fft"}, "alpha": 2, "c": 1e9, "levels": [{"bw": 1e6, "m": 64}, {"bw": 2e6, "m": 256}]}`,
			"non_monotone_hierarchy"},
		{"roofline sweep_level without levels", "/v1/roofline",
			`{"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computations": [{"name": "fft"}], "mem_lo": 64, "mem_hi": 256, "sweep_level": 1}`,
			"invalid_argument"},
		{"non-monotone roofline", "/v1/roofline",
			`{"pe": {"c": 1e9}, "levels": [{"bw": 1e6, "m": 64}, {"bw": 2e6, "m": 256}], "computations": [{"name": "fft"}], "mem_lo": 64, "mem_hi": 256}`,
			"non_monotone_hierarchy"},
		{"roofline sweep_level out of range", "/v1/roofline",
			`{"pe": {"c": 1e9}, "levels": [{"bw": 1e6, "m": 64}], "computations": [{"name": "fft"}], "mem_lo": 64, "mem_hi": 256, "sweep_level": 5}`,
			"invalid_argument"},
		{"hierarchy sweep without computation", "/v1/sweep",
			`{"kernel": "hierarchy", "c": 1e9, "levels": [{"bw": 1e6, "m": 64}], "params": [64, 256]}`,
			"invalid_argument"},
		{"hierarchy sweep non-monotone stack", "/v1/sweep",
			`{"kernel": "hierarchy", "c": 1e9, "levels": [{"bw": 1e6, "m": 64}, {"bw": 2e6, "m": 256}], "computation": {"name": "fft"}, "params": [64]}`,
			"non_monotone_hierarchy"},
		{"hierarchy sweep bandwidth value breaks monotonicity", "/v1/sweep",
			`{"kernel": "hierarchy", "c": 1e9, "levels": [{"bw": 1e6, "m": 64}, {"bw": 5e5, "m": 256}], "computation": {"name": "fft"}, "vary": "bandwidth", "level": 2, "params": [2000000]}`,
			"non_monotone_hierarchy"},
		{"hierarchy sweep bad vary", "/v1/sweep",
			`{"kernel": "hierarchy", "c": 1e9, "levels": [{"bw": 1e6, "m": 64}], "computation": {"name": "fft"}, "vary": "latency", "params": [64]}`,
			"invalid_argument"},
	}
	for _, tc := range cases {
		code, body := postJSON(t, h, "POST", tc.path, tc.body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422\n%s", tc.name, code, body)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: bad envelope: %v", tc.name, err)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, env.Error.Code, tc.code, env.Error.Message)
		}
	}
}

func TestRebalanceHierarchyEndpoint(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := postJSON(t, h, "POST", "/v1/rebalance",
		`{"computation": {"name": "sorting"}, "alpha": 1.5, "c": 8e6,
		  "levels": [{"name": "ram", "bw": 1e6, "m": 1024}, {"name": "disk", "bw": 5e5, "m": 1048576}]}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp RebalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Rebalanceable || resp.BindingBoundary != 2 {
		t.Fatalf("rebalanceable %v binding %d: %s", resp.Rebalanceable, resp.BindingBoundary, body)
	}
	if len(resp.Boundaries) != 2 || len(resp.LevelBill) != 2 {
		t.Fatalf("boundaries/bill = %d/%d", len(resp.Boundaries), len(resp.LevelBill))
	}
	// Intensities 8, 16 grow to 12, 24 → cumulative requirements 2^12, 2^24.
	if got := resp.Boundaries[1].RequiredWithin; math.Abs(got-float64(1<<24)) > 1 {
		t.Errorf("boundary 2 requires %v, want 2^24", got)
	}
	if math.Abs(resp.TotalMemory-float64(1<<24)) > 1 {
		t.Errorf("total memory %v, want 2^24", resp.TotalMemory)
	}
	var sum float64
	for _, l := range resp.LevelBill {
		sum += l.MNew
		if l.MNew < l.MOld {
			t.Errorf("level %s shrank: %v → %v", l.Name, l.MOld, l.MNew)
		}
	}
	if sum != resp.TotalMemory {
		t.Errorf("bill sums to %v, total says %v", sum, resp.TotalMemory)
	}
	// The flat top-level m_new/m_closed_form stay absent on the hierarchy
	// answer (the per-level bill carries its own m_new lines).
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["m_new"]; ok {
		t.Errorf("hierarchy response leaked top-level m_new:\n%s", body)
	}
	if _, ok := top["m_closed_form"]; ok {
		t.Errorf("hierarchy response leaked top-level m_closed_form:\n%s", body)
	}
}

func TestRooflineHierarchyEndpoint(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := postJSON(t, h, "POST", "/v1/roofline",
		`{"pe": {"c": 1e9},
		  "levels": [{"bw": 5e8, "m": 4096}, {"bw": 1e7, "m": 16777216}],
		  "computations": [{"name": "matmul"}, {"name": "sorting"}],
		  "mem_lo": 1024, "mem_hi": 1048576, "sweep_level": 2, "chart": true}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp RooflineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Ridges) != 2 || resp.Ridges[0].Intensity != 2 || resp.Ridges[1].Intensity != 100 {
		t.Fatalf("ridges = %+v, want intensities 2 and 100", resp.Ridges)
	}
	if resp.RidgeIntensity != 100 {
		t.Errorf("ridge_intensity = %v, want the outermost (100)", resp.RidgeIntensity)
	}
	if resp.SweepLevel != 2 || len(resp.Paths) != 2 {
		t.Fatalf("sweep_level %d paths %d", resp.SweepLevel, len(resp.Paths))
	}
	for _, path := range resp.Paths {
		if len(path.Points) == 0 {
			t.Fatalf("%s: empty path", path.Computation)
		}
		for i, p := range path.Points {
			if i > 0 && p.Attainable < path.Points[i-1].Attainable {
				t.Errorf("%s: attainable fell as the level grew", path.Computation)
			}
		}
	}
	if !strings.Contains(resp.Chart, "multi-ridge roofline") {
		t.Errorf("chart is not the multi-ridge rendering:\n%s", resp.Chart)
	}
}

func TestHierarchySweepKernel(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	// Sweep level 1's capacity: at 16 words the inner boundary binds with
	// R = log₂16 = 4; at 65536 the outer boundary binds with
	// R = log₂(65536 + 2^20) ≈ 20.09.
	body := `{"kernel": "hierarchy", "c": 8e6,
	  "levels": [{"bw": 1e6, "m": 16}, {"bw": 5e5, "m": 1048576}],
	  "computation": {"name": "sorting"}, "params": [16, 65536]}`
	code, raw := postJSON(t, h, "POST", "/v1/sweep", body)
	if code != 200 {
		t.Fatalf("status %d: %s", code, raw)
	}
	var resp SweepResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kernel != "hierarchy" || resp.Cached || len(resp.Points) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Points[0].Memory != 16 || resp.Points[1].Memory != 65536 {
		t.Errorf("memories = %d/%d", resp.Points[0].Memory, resp.Points[1].Memory)
	}
	if got := resp.Points[0].Ratio; math.Abs(got-4) > 1e-5 {
		t.Errorf("point 16 ratio = %v, want 4 (binding inner boundary)", got)
	}
	wantOuter := math.Log2(65536 + 1048576)
	if got := resp.Points[1].Ratio; math.Abs(got-wantOuter) > 1e-5 {
		t.Errorf("point 65536 ratio = %v, want %v (binding outer boundary)", got, wantOuter)
	}
	// Identical request: answered from the memo.
	if _, raw := postJSON(t, h, "POST", "/v1/sweep", body); !strings.Contains(string(raw), `"cached": true`) {
		t.Errorf("repeat sweep not cached: %s", raw)
	}
	// A bandwidth sweep through the same kernel: growing the outer
	// channel moves the binding boundary's ratio.
	bwBody := `{"kernel": "hierarchy", "c": 8e6,
	  "levels": [{"bw": 1e6, "m": 16}, {"bw": 5e5, "m": 1048576}],
	  "computation": {"name": "sorting"}, "vary": "bandwidth", "level": 2,
	  "params": [100000, 500000]}`
	code, raw = postJSON(t, h, "POST", "/v1/sweep", bwBody)
	if code != 200 {
		t.Fatalf("bandwidth sweep status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 {
		t.Fatalf("bandwidth sweep points = %d", len(resp.Points))
	}
}

// TestHierarchySweepCacheKeyInjective pins the memo-poisoning fix: two
// different machine descriptions whose %v renderings coincide (a level
// name forging the list separator) must not share a cache key.
func TestHierarchySweepCacheKeyInjective(t *testing.T) {
	a := &SweepRequest{Kernel: "hierarchy", C: 1,
		Levels:      []LevelDTO{{Name: "a 3 2} {b", BW: 1, M: 4}},
		Computation: &ComputationDTO{Name: "sorting"}, Params: []int{8}}
	b := &SweepRequest{Kernel: "hierarchy", C: 1,
		Levels:      []LevelDTO{{Name: "a", BW: 3, M: 2}, {Name: "b", BW: 1, M: 4}},
		Computation: &ComputationDTO{Name: "sorting"}, Params: []int{8}}
	if ka, kb := sweepCacheKey(a, a.Params), sweepCacheKey(b, b.Params); ka == kb {
		t.Fatalf("two different machines share a cache key: %s", ka)
	}
}

// TestSweepRejectsHierarchyFieldsOnFlatKernels: the mutual-exclusion
// contract the other endpoints enforce holds on /v1/sweep too — a flat
// kernel with hierarchy fields is a 422, not a silently flat answer.
func TestSweepRejectsHierarchyFieldsOnFlatKernels(t *testing.T) {
	h := New(Options{}).Handler()
	for name, body := range map[string]string{
		"levels":      `{"kernel": "sort", "params": [32], "levels": [{"bw": 1e6, "m": 64}]}`,
		"c":           `{"kernel": "matmul", "n": 64, "params": [8], "c": 1e9}`,
		"computation": `{"kernel": "fft", "n": 4096, "params": [16], "computation": {"name": "fft"}}`,
		"vary":        `{"kernel": "matvec", "n": 1024, "params": [64], "vary": "capacity"}`,
		"level":       `{"kernel": "convolve", "n": 8192, "params": [8], "level": 1}`,
	} {
		code, out := postJSON(t, h, "POST", "/v1/sweep", body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s on a flat kernel: status %d, want 422\n%s", name, code, out)
		}
	}
}

func TestCatalogEndpoint(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	code, body := postJSON(t, h, "GET", "/v1/catalog", "")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp CatalogResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Computations) != len(computationNames) {
		t.Fatalf("catalog lists %d computations, want %d", len(resp.Computations), len(computationNames))
	}
	byID := map[string]CatalogEntry{}
	for i, e := range resp.Computations {
		if e.ID != computationNames[i] {
			t.Errorf("entry %d id %q, want %q (id order)", i, e.ID, computationNames[i])
		}
		if e.Name == "" || e.Section == "" || e.Law == "" || e.RatioFamily == "" {
			t.Errorf("entry %s has empty metadata: %+v", e.ID, e)
		}
		byID[e.ID] = e
	}
	if e := byID["grid"]; e.DefaultDim != 2 || e.RatioFamily != "Θ(√M)" {
		t.Errorf("grid entry = %+v, want default dim 2 with the α² family", e)
	}
	if e := byID["convolution"]; e.DefaultTaps != 16 || !e.IOBounded {
		t.Errorf("convolution entry = %+v", e)
	}
	if e := byID["fft"]; e.RatioFamily != "Θ(log₂M)" || e.IOBounded {
		t.Errorf("fft entry = %+v", e)
	}
	if e := byID["matvec"]; !e.IOBounded || e.RatioFamily != "Θ(1)" {
		t.Errorf("matvec entry = %+v", e)
	}
	// Every advertised id must be accepted by the analyze resolver.
	for _, e := range resp.Computations {
		code, out := postJSON(t, h, "POST", "/v1/analyze",
			`{"pe": {"c": 1e6, "io": 1e6, "m": 4096}, "computation": {"name": "`+e.ID+`"}}`)
		if code != 200 {
			t.Errorf("catalog id %q rejected by analyze: %d %s", e.ID, code, out)
		}
	}
}

// TestHierarchyThroughBatchAndJobs drives the hierarchy ops through the
// batch fan-out, proving the shared cores carry the new branch everywhere.
func TestHierarchyThroughBatch(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := postJSON(t, h, "POST", "/v1/batch",
		`{"requests": [
			{"op": "analyze", "request": {`+threeLevelBody+`, "computation": {"name": "matmul"}}},
			{"op": "rebalance", "request": {"computation": {"name": "sorting"}, "alpha": 1.5, "c": 8e6, "levels": [{"bw": 1e6, "m": 1024}, {"bw": 5e5, "m": 1048576}]}},
			{"op": "sweep", "request": {"kernel": "hierarchy", "c": 8e6, "levels": [{"bw": 1e6, "m": 16}], "computation": {"name": "fft"}, "params": [16, 64]}}
		]}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Status != 200 {
			t.Errorf("item %d: status %d: %s", i, r.Status, r.Body)
		}
	}
	var a AnalyzeResponse
	if err := json.Unmarshal(resp.Results[0].Body, &a); err != nil {
		t.Fatal(err)
	}
	if a.BindingBoundary != 3 {
		t.Errorf("batched hierarchy analyze binding = %d, want 3", a.BindingBoundary)
	}
}
