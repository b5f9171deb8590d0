package server

// Differential tests pinning the append encoder to encoding/json: it must
// be byte-identical to the stdlib for every hot response type (including
// the float formatting and HTML-escaping corner cases), on the wire of
// every JSON endpoint and in every batch item.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stdlibBody is the pre-optimization wire encoding of a 2xx body: two-space
// indent, trailing newline, HTML escaping on.
func stdlibBody(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encoderCorpus enumerates hot-type values that exercise every branch the
// append encoder hand-rolls: omitempty on zero and non-zero fields, nil vs
// empty vs populated slices, and the stdlib's float formatting and string
// escaping edge cases.
func encoderCorpus() []any {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0, -123.456,
		1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 1.0000000000000002e21,
		5e-324, math.MaxFloat64, 2.5e6, 4096, 1048576,
	}
	strs := []string{
		"", "plain", "with \"quotes\" and \\ backslash",
		"html <b>&amp;</b> bits", "control \x01\x02 \n\t\r bytes",
		"unicode é 日本語", "line seps    ", "invalid \xff\xfe utf8",
	}
	var vals []any
	for i, f := range floats {
		s := strs[i%len(strs)]
		vals = append(vals,
			&AnalyzeResponse{
				Computation: s, Section: "3.1",
				PE:        PEDTO{C: f, IO: -f, M: f * 3},
				Intensity: f, AchievableRatio: f / 7, State: "balanced",
				BalancedMemory: f, Rebalanceable: i%2 == 0, Law: s,
			},
			&RebalanceResponse{
				Computation: s, Alpha: f, MOld: f, Rebalanceable: true,
				MNew: f * 2, MClosedForm: f, Law: s, C: f,
				Boundaries: []RebalanceBoundaryDTO{
					{Boundary: 1, Intensity: f, RequiredWithin: f, Rebalanceable: true},
					{Boundary: 2, Intensity: -f, Rebalanceable: false},
				},
				BindingBoundary: i, TotalMemory: f, TotalDelta: -f,
			},
		)
	}
	vals = append(vals,
		// Hierarchy analyze: levels, boundaries, binding boundary.
		&AnalyzeResponse{
			Computation: "Matrix multiplication", Section: "3.2",
			PE:        PEDTO{C: 1e9, IO: 4e9, M: 1024},
			Intensity: 0.25, AchievableRatio: 32, State: "compute-bound",
			Rebalanceable: true, Law: "m_new = m_old^1.5",
			Levels: []LevelDTO{
				{Name: "sram", BW: 4e9, M: 1024},
				{BW: 1e9, M: 262144}, // no name: omitempty branch
			},
			Boundaries: []BoundaryDTO{
				{Boundary: 1, Name: "sram", BW: 4e9, CapacityWithin: 1024,
					Intensity: 0.25, AchievableRatio: 32, State: "compute-bound",
					BalancedMemory: 64, Rebalanceable: true},
				{Boundary: 2, BW: 1e9, CapacityWithin: 263168,
					Intensity: 1, AchievableRatio: 512, State: "io-bound"},
			},
			BindingBoundary: 2,
		},
		// Sweep responses: nil points (null), empty non-nil ([]), populated.
		&SweepResponse{Kernel: "sort", Points: nil, Cached: true},
		&SweepResponse{Kernel: "matmul", Points: []SweepPointDTO{}, Cached: false},
		&SweepResponse{Kernel: "hierarchy", Cached: true, Points: []SweepPointDTO{
			{Memory: 64, Ops: 18446744073709551615, Reads: 0, Writes: 1, Ratio: 0.5},
			{Memory: 1 << 30, Ops: 42, Reads: 1e6, Writes: 99, Ratio: 1e21},
		}},
		// Error envelopes, incl. HTML-escaped message bytes.
		errorEnvelope{Error: ErrorBody{Code: "bad_json", Message: "body must be valid JSON"}},
		errorEnvelope{Error: ErrorBody{Code: "invalid_argument", Message: `got "<&>" near  `}},
		// Unsupported values: both paths must agree on the error too.
		&AnalyzeResponse{Intensity: math.NaN()},
		&AnalyzeResponse{AchievableRatio: math.Inf(1)},
		&SweepResponse{Points: []SweepPointDTO{{Ratio: math.Inf(-1)}}},
	)
	return vals
}

func TestAppendEncoderByteIdentical(t *testing.T) {
	for i, v := range encoderCorpus() {
		want, wantErr := stdlibBody(t, v)
		got, gotErr := appendJSONBody(nil, v)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("corpus[%d] %T: err = %v, stdlib err = %v", i, v, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("corpus[%d] %T: err %q, stdlib %q", i, v, gotErr, wantErr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("corpus[%d] %T: body diverges\n got: %q\nwant: %q", i, v, got, want)
		}
		// Compact form against json.Marshal.
		wantC, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := appendJSONCompact(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotC, wantC) {
			t.Errorf("corpus[%d] %T: compact diverges\n got: %q\nwant: %q", i, v, gotC, wantC)
		}
		// Appending after existing bytes must not disturb either.
		pre := []byte("prefix-")
		if got2, err := appendJSONBody(pre, v); err != nil || !bytes.Equal(got2, append([]byte("prefix-"), want...)) {
			t.Errorf("corpus[%d] %T: dst prefix not preserved", i, v)
		}
	}
}

// goldenRequests is every JSON endpoint's golden request set: each entry is
// served end to end and its wire bytes compared against the stdlib
// re-encoding of the typed response — proving the pooled/append path writes
// exactly what encoding/json would have.
var goldenRequests = []struct {
	name, path, body string
	status           int
}{
	{"analyze_flat", "/v1/analyze", `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`, 200},
	{"analyze_unbalanced", "/v1/analyze", `{"pe": {"c": 1e9, "io": 1, "m": 1}, "computation": {"name": "spmv"}}`, 200},
	{"analyze_hierarchy", "/v1/analyze", `{"pe": {"c": 1e9}, "levels": [{"name": "sram", "bw": 4e9, "m": 1024}, {"bw": 1e9, "m": 262144}], "computation": {"name": "matmul"}}`, 200},
	{"analyze_error", "/v1/analyze", `{"pe": {"c": -1}, "computation": {"name": "fft"}}`, 422},
	{"analyze_bad_json", "/v1/analyze", `{"pe": `, 400},
	{"analyze_unknown_field", "/v1/analyze", `{"pe": {"c": 1e6, "io": 1e3, "m": 64}, "computation": {"name": "fft"}, "zzz": 1}`, 400},
	{"rebalance", "/v1/rebalance", `{"computation": {"name": "matmul"}, "alpha": 2, "m_old": 1024}`, 200},
	{"rebalance_hierarchy", "/v1/rebalance", `{"computation": {"name": "fft"}, "alpha": 2, "c": 1e9, "levels": [{"bw": 4e9, "m": 1024}, {"bw": 1e9, "m": 262144}]}`, 200},
	{"sweep_sort", "/v1/sweep", `{"kernel": "sort", "params": [64, 128], "seed": 7}`, 200},
	{"sweep_matmul", "/v1/sweep", `{"kernel": "matmul", "n": 64, "params": [8, 16]}`, 200},
	{"sweep_hierarchy", "/v1/sweep", `{"kernel": "hierarchy", "c": 8e6, "levels": [{"bw": 1e6, "m": 16}, {"bw": 5e5, "m": 1048576}], "computation": {"name": "sorting"}, "params": [64, 256]}`, 200},
	{"sweep_error", "/v1/sweep", `{"kernel": "warp9", "params": [1]}`, 422},
}

func TestEndpointBytesMatchStdlib(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	for _, g := range goldenRequests {
		// Twice: the second sweep hits the memo, so the cached=true
		// encoding is covered too.
		for pass := 0; pass < 2; pass++ {
			req := httptest.NewRequest("POST", g.path, strings.NewReader(g.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != g.status {
				t.Fatalf("%s pass %d: status %d, want %d: %s", g.name, pass, w.Code, g.status, w.Body.String())
			}
			wire := w.Body.Bytes()
			var typed any
			switch {
			case g.status != 200:
				typed = new(errorEnvelope)
			case g.path == "/v1/sweep":
				typed = new(SweepResponse)
			case g.path == "/v1/rebalance":
				typed = new(RebalanceResponse)
			default:
				typed = new(AnalyzeResponse)
			}
			if err := json.Unmarshal(wire, typed); err != nil {
				t.Fatalf("%s: response does not parse: %v", g.name, err)
			}
			if ee, ok := typed.(*errorEnvelope); ok {
				typed = *ee // errors encode as a value, not a pointer
			}
			want, err := stdlibBody(t, typed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, want) {
				t.Errorf("%s pass %d: wire bytes diverge from stdlib\n got: %q\nwant: %q",
					g.name, pass, wire, want)
			}
		}
	}
}

// TestBatchItemBytesMatchStdlib pins the compact (json.Marshal) encoding
// the batch endpoint stores per item.
func TestBatchItemBytesMatchStdlib(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	body := `{"requests": [
		{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}},
		{"op": "sweep", "request": {"kernel": "sort", "params": [64], "seed": 3}},
		{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 2, "m_old": 1024}}]}`
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The outer envelope's indenting encoder re-flows the embedded raw
	// bodies, so compare modulo whitespace: compacted wire bytes must equal
	// json.Marshal of the typed value (the form batchItem stores).
	types := []any{new(AnalyzeResponse), new(SweepResponse), new(RebalanceResponse)}
	for i, res := range resp.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %v", i, res.Status, res.Error)
		}
		if err := json.Unmarshal(res.Body, types[i]); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(types[i])
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, res.Body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("item %d: body diverges from json.Marshal\n got: %q\nwant: %q", i, got.Bytes(), want)
		}
	}
}
