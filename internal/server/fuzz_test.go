package server

// Native fuzz targets for the DTO layer: whatever bytes arrive at the JSON
// endpoints, the response must be a well-formed 200 or a typed error
// envelope — never a panic, never a 500. The seed corpus is the same set of
// bodies the httptest suite posts, so the fuzzer starts from valid requests
// and mutates toward the edges (it is how the sweep work caps in sweep.go
// were found). CI runs each target with -fuzztime=30s; `go test` alone
// replays the seeds as ordinary tests.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// fuzzTarget is the one shared server for all fuzz executions in this
// process: small budgets so a mutated-but-valid heavy request (a capped
// sort sweep, a replayed experiment) is cut off by the request timeout
// instead of stalling the fuzzer.
var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
)

func fuzzTarget() http.Handler {
	fuzzOnce.Do(func() {
		fuzzHandler = New(Options{
			Parallelism:    2,
			RequestTimeout: 2 * time.Second,
			MaxBodyBytes:   1 << 16,
			MaxBatch:       8,
			MaxInFlight:    -1,
		}).Handler()
	})
	return fuzzHandler
}

// fuzzAllowedStatus is every status the API contract admits for an
// arbitrary body: success, the four request-fault mappings, and 503 for
// work the per-request budget cut off. 500 is deliberately absent.
var fuzzAllowedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusServiceUnavailable:    true,
}

// assertEnvelopeContract posts body to path and enforces the invariant.
func assertEnvelopeContract(t *testing.T, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	fuzzTarget().ServeHTTP(rr, req)
	status := rr.Code
	if !fuzzAllowedStatus[status] {
		t.Fatalf("%s: status %d outside the API contract\nbody in: %q\nbody out: %s",
			path, status, body, rr.Body.Bytes())
	}
	if rr.Header().Get(RequestIDHeader) == "" {
		t.Fatalf("%s: response missing %s", path, RequestIDHeader)
	}
	if status == http.StatusOK {
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("%s: 200 with invalid JSON body: %.200s", path, rr.Body.Bytes())
		}
		return
	}
	var env errorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s: status %d body is not an error envelope: %v\n%.200s",
			path, status, err, rr.Body.Bytes())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("%s: status %d envelope missing code or message: %.200s",
			path, status, rr.Body.Bytes())
	}
}

// decoderEdgeSeeds walks the strict decoder's edge classes over the
// analyze and sweep fields: valid bodies, escapes, duplicate keys (which
// merge), unknown and case-folded names, float forms, int64 overflow,
// 1e400, null, empty arrays, trailing data, syntax errors and lone
// surrogates. Both targets seed with all of it, so plain `go test` holds
// every case to the envelope contract on both endpoints.
var decoderEdgeSeeds = []string{
	`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`,
	`{"pe": {"c": 1e9}, "levels": [{"name": "sram", "bw": 4e9, "m": 1024}], "computation": {"name": "matmul"}}`,
	`{"kernel": "sort", "params": [64, 128, 256], "seed": 7}`,
	`{"kernel": "matmul", "n": 256, "params": [4, 8]}`,
	`{"kernel": "hierarchy", "c": 8e6, "levels": [{"bw": 1e6, "m": 16}], "computation": {"name": "sorting"}, "params": [16], "vary": "bandwidth", "level": 1}`,
	`{}`, `  {  } `, `null`, `true`, `[]`, `""`, `17`, ``, `   `,
	`{"pe": {"c": 1}, "pe": {"io": 2}}`,                         // duplicate key: merge
	`{"computation": {"name": "a"}, "computation": {"dim": 3}}`, // duplicate pointer: merge in place
	`{"Kernel": "sort"}`,                                        // case-insensitive match
	`{"KERNEL": "sort", "params": [1]}`,                         // case-insensitive match
	`{"kernel": "s\\u006frt", "params": []}`,                    // escape in string + empty array
	`{"kernel": "日本語"}`,                                         // non-ASCII string bytes
	`{"unknown_field": 1}`,
	`{"n": 1.5}`, `{"n": 1e2}`, `{"n": -0}`, `{"n": 9223372036854775807}`,
	`{"n": 9223372036854775808}`, `{"seed": -9223372036854775808}`,
	`{"pe": {"c": -0.0}}`, `{"pe": {"c": 0.1e-400}}`, `{"pe": {"c": 1e400}}`,
	`{"pe": {"c": 179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.5}}`,
	`{"pe": null}`, `{"levels": null}`, `{"params": null}`,
	`{"levels": []}`, `{"params": []}`,
	`{"params": [1, 2,]}`, `{"params": [01]}`, `{"n": 007}`,
	`{"kernel": "sort"} trailing`, `{"kernel": "sort"}{}`,
	`{"kernel": "sort"`, `{"kernel": sort}`, `{"kernel": "sort",}`,
	"{\"kernel\": \"s\x00rt\"}", `{"kernel": "bad \ud800 surrogate"}`,
	`{"max_memory": 1e18, "pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "grid", "dim": 3, "taps": 4}}`,
}

func FuzzAnalyzeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`,
		`{"pe": {"c": 1e6, "io": 2e6, "m": 64}, "computation": {"name": "grid", "dim": 3}}`,
		`{"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "convolution", "taps": 8}}`,
		`{"pe": {"c": -5, "io": 0, "m": 1e400}, "computation": {"name": "matmul"}}`,
		`{"computation": {"name": ""}}`,
		`{`,
		``,
		`null`,
		`{"pe": {}, "computation": {"name": "sorting"}, "max_memory": -1}`,
		// Strict-decoder edge cases the generic corpus posts only to
		// sweep fields: case-folded names, int64 overflow, a lone
		// surrogate, here on analyze's own fields.
		`{"PE": {"C": 50e6, "IO": 1e6, "M": 4096}, "COMPUTATION": {"Name": "fft"}}`,
		`{"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "grid", "dim": 9223372036854775808}}`,
		`{"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "bad \ud800 surrogate"}}`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range decoderEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertEnvelopeContract(t, "/v1/analyze", body)
	})
}

func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kernel": "matmul", "n": 64, "params": [4, 8]}`,
		`{"kernel": "lu", "n": 96, "params": [8, 16]}`,
		`{"kernel": "fft", "n": 4096, "params": [16, 64]}`,
		`{"kernel": "sort", "params": [32, 64], "seed": 7}`,
		`{"kernel": "grid", "dim": 2, "size": 16, "iters": 2, "params": [9, 16]}`,
		`{"kernel": "spmv", "n": 1024, "nnz_per_row": 8, "params": [64, 256]}`,
		`{"kernel": "convolve", "n": 8192, "params": [8, 64]}`,
		`{"kernel": "strassen", "n": 64, "params": [8, 16]}`,
		`{"kernel": "matmul", "n": 4194304, "params": [1]}`,
		`{"kernel": "", "params": []}`,
		`{"kernel": "matmul", "n": -1, "params": [0]}`,
		`{"unknown_field": true}`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range decoderEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertEnvelopeContract(t, "/v1/sweep", body)
	})
}

// FuzzHierarchyRequest fuzzes the `levels` DTO across every endpoint that
// accepts it: whatever level stack (mis-ordered, empty, huge, NaN-ridden)
// arrives at analyze, rebalance, roofline, or sweep, the answer is a 2xx or
// a typed envelope — never a panic, never a 500. The seed corpus covers
// valid hierarchies, the typed non-monotone 422, the mutual-exclusion
// rules, and both sweep vary axes. The leading byte routes the input so
// one corpus exercises all four endpoints.
func FuzzHierarchyRequest(f *testing.F) {
	for _, seed := range []string{
		`0{"pe": {"c": 1e9}, "levels": [{"name": "sram", "bw": 4e9, "m": 1024}, {"bw": 1e9, "m": 262144}, {"bw": 1e5, "m": 67108864}], "computation": {"name": "matmul"}}`,
		`0{"pe": {"c": 1e9}, "levels": [{"bw": 1e6, "m": 64}, {"bw": 2e6, "m": 256}], "computation": {"name": "fft"}}`,
		`0{"pe": {"c": 1e9, "io": 1e6}, "levels": [{"bw": 1e6, "m": 64}], "computation": {"name": "fft"}}`,
		`0{"pe": {"c": 1e9}, "levels": [], "computation": {"name": "sorting"}}`,
		`1{"computation": {"name": "sorting"}, "alpha": 1.5, "c": 8e6, "levels": [{"bw": 1e6, "m": 1024}, {"bw": 5e5, "m": 1048576}]}`,
		`1{"computation": {"name": "matvec"}, "alpha": 2, "c": 1e9, "levels": [{"bw": 1e6, "m": 64}]}`,
		`1{"computation": {"name": "fft"}, "alpha": 2, "m_old": 64, "c": 1e9, "levels": [{"bw": 1e6, "m": 64}]}`,
		`2{"pe": {"c": 1e9}, "levels": [{"bw": 5e8, "m": 4096}, {"bw": 1e7, "m": 16777216}], "computations": [{"name": "matmul"}], "mem_lo": 1024, "mem_hi": 1048576, "sweep_level": 2, "chart": true}`,
		`2{"pe": {"c": 1e9}, "levels": [{"bw": 5e8, "m": -1}], "computations": [{"name": "grid", "dim": 9}], "mem_lo": 0, "mem_hi": 0}`,
		`3{"kernel": "hierarchy", "c": 8e6, "levels": [{"bw": 1e6, "m": 16}, {"bw": 5e5, "m": 1048576}], "computation": {"name": "sorting"}, "params": [16, 65536]}`,
		`3{"kernel": "hierarchy", "c": 8e6, "levels": [{"bw": 1e6, "m": 16}], "computation": {"name": "fft"}, "vary": "bandwidth", "level": 1, "params": [100000]}`,
		`3{"kernel": "hierarchy", "c": 1e308, "levels": [{"bw": 1e-300, "m": 1e308}], "computation": {"name": "sorting"}, "params": [1]}`,
		`3{"kernel": "hierarchy", "params": [1]}`,
		`0{`,
		`9{}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	paths := []string{"/v1/analyze", "/v1/rebalance", "/v1/roofline", "/v1/sweep"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		path := paths[int(data[0])%len(paths)]
		assertEnvelopeContract(t, path, data[1:])
	})
}

func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"requests": [{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}]}`,
		`{"requests": [{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 4, "m_old": 1024}},` +
			`{"op": "sweep", "request": {"kernel": "matmul", "n": 64, "params": [4, 8]}}]}`,
		`{"requests": [{"op": "experiment", "request": {"id": "E1"}}]}`,
		`{"requests": [{"op": "bogus", "request": {}}, {"op": ""}]}`,
		`{"requests": []}`,
		`{"requests": [{"op": "analyze", "request": "not an object"}]}`,
		`{"requests"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertEnvelopeContract(t, "/v1/batch", body)
	})
}

// fuzzJobsTarget is the one jobs-enabled server shared by FuzzJobSubmit:
// a paused queue (no workers) with a small admission budget, so a
// mutated-but-valid submission is journaled (or 429'd) and never
// executes — the fuzzer measures the DTO/admission layer, not kernels.
var (
	fuzzJobsOnce    sync.Once
	fuzzJobsHandler http.Handler
)

func fuzzJobsTarget() http.Handler {
	fuzzJobsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "balarch-fuzz-jobs-*")
		if err != nil {
			panic(err)
		}
		fuzzJobsHandler = New(Options{
			Parallelism:    2,
			RequestTimeout: 2 * time.Second,
			MaxBodyBytes:   1 << 16,
			MaxBatch:       8,
			MaxInFlight:    -1,
			StoreDir:       dir,
			JobWorkers:     -1,
			MemBudgetBytes: 1 << 20,
		}).Handler()
	})
	return fuzzJobsHandler
}

// fuzzJobsAllowedStatus extends the contract for the async surface: 202
// for an accepted job, 200 for one deduplicated to done, and 429 for an
// admission refusal. 500 remains deliberately absent.
var fuzzJobsAllowedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusAccepted:              true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusConflict:              true,
	http.StatusServiceUnavailable:    true,
}

// FuzzJobSubmit holds the envelope invariant on POST /v1/jobs: any bytes
// draw a 2xx with valid JSON or a typed error envelope — never a panic,
// never a 500 — and a 429 always carries Retry-After. Every admitted body
// also holds the gateway's job-affinity invariant: RouteIDForJob predicts
// the id the submit assigned.
func FuzzJobSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"op": "sweep", "request": {"kernel": "matmul", "n": 64, "params": [4, 8]}}`,
		`{"op": "sweep", "request": {"kernel": "sort", "params": [256, 256]}}`,
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 4, "m_old": 1024}}`,
		`{"op": "roofline", "request": {"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computations": [{"name": "grid"}], "mem_lo": 64, "mem_hi": 4096}}`,
		`{"op": "experiment", "request": {"id": "E1"}}`,
		`{"op": "batch", "request": {"requests": [{"op": "analyze", "request": {"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "fft"}}}]}}`,
		`{"op": "batch", "request": {"requests": [{"op": "batch", "request": {"requests": []}}]}}`,
		`{"op": "", "request": {}}`,
		`{"op": "sweep"}`,
		`{"op": "analyze", "request": {"pe": {"c": -1, "io": 1, "m": 1}, "computation": {"name": "fft"}}}`,
		`{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 0.5, "m_old": 1024}}`,
		`{"op": "roofline", "request": {"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computations": [{"name": "grid"}], "mem_lo": 64, "mem_hi": 4096, "step": 1.0000001}}`,
		`{`,
		``,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		fuzzJobsTarget().ServeHTTP(rr, req)
		status := rr.Code
		if !fuzzJobsAllowedStatus[status] {
			t.Fatalf("/v1/jobs: status %d outside the API contract\nbody in: %q\nbody out: %s",
				status, body, rr.Body.Bytes())
		}
		if rr.Header().Get(RequestIDHeader) == "" {
			t.Fatalf("/v1/jobs: response missing %s", RequestIDHeader)
		}
		if status == http.StatusTooManyRequests && rr.Header().Get("Retry-After") == "" {
			t.Fatalf("/v1/jobs: 429 without Retry-After")
		}
		if status == http.StatusOK || status == http.StatusAccepted {
			var dto JobStatusDTO
			if err := json.Unmarshal(rr.Body.Bytes(), &dto); err != nil {
				t.Fatalf("/v1/jobs: %d with invalid JSON body: %.200s", status, rr.Body.Bytes())
			}
			if id, ok := RouteIDForJob(body); !ok || id != dto.ID {
				t.Fatalf("/v1/jobs: RouteIDForJob = %q, %v; the submit assigned %q\nbody in: %q",
					id, ok, dto.ID, body)
			}
			return
		}
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
			t.Fatalf("/v1/jobs: status %d body is not an error envelope: %v\n%.200s",
				status, err, rr.Body.Bytes())
		}
		if env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("/v1/jobs: status %d envelope missing code or message: %.200s",
				status, rr.Body.Bytes())
		}
	})
}

// FuzzJobPriority holds the priority contract on POST /v1/jobs: an
// arbitrary priority string draws either an accepted submission (when
// it is one of the three classes or absent) or a typed 422
// invalid_priority — never a panic, never a 500, and never a silent
// reinterpretation of an unknown spelling.
func FuzzJobPriority(f *testing.F) {
	for _, seed := range []string{"", "normal", "low", "high", "urgent", "HIGH", " high", "Low", "0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prio string) {
		body, err := json.Marshal(map[string]any{
			"op":       "sweep",
			"priority": prio,
			"request":  map[string]any{"kernel": "matmul", "n": 64, "params": []int{8}},
		})
		if err != nil {
			t.Skip()
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		fuzzJobsTarget().ServeHTTP(rr, req)
		status := rr.Code
		if !fuzzJobsAllowedStatus[status] {
			t.Fatalf("/v1/jobs: priority %q drew status %d outside the API contract\nbody out: %s",
				prio, status, rr.Body.Bytes())
		}
		valid := prio == "" || prio == "normal" || prio == "low" || prio == "high"
		if valid {
			if status == http.StatusUnprocessableEntity {
				t.Fatalf("/v1/jobs: valid priority %q rejected: %.200s", prio, rr.Body.Bytes())
			}
			return
		}
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("/v1/jobs: unknown priority %q drew %d, want 422", prio, status)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
			t.Fatalf("/v1/jobs: 422 body is not an error envelope: %v\n%.200s", err, rr.Body.Bytes())
		}
		if env.Error.Code != "invalid_priority" {
			t.Fatalf("/v1/jobs: unknown priority %q drew code %q, want invalid_priority",
				prio, env.Error.Code)
		}
	})
}

// TestSweepWorkCaps pins the service caps the fuzz targets depend on: a
// nominally-valid request whose loop work explodes must be a 422, not a
// multi-hour sweep.
func TestSweepWorkCaps(t *testing.T) {
	for name, body := range map[string]string{
		"matmul tiny block":  `{"kernel": "matmul", "n": 4194304, "params": [1]}`,
		"lu tiny block":      `{"kernel": "lu", "n": 4194304, "params": [4]}`,
		"trisolve tiny":      `{"kernel": "trisolve", "n": 4194304, "params": [2]}`,
		"sort total keys":    `{"kernel": "sort", "params": [2048, 2048, 2048]}`,
		"grid total updates": `{"kernel": "grid", "dim": 2, "size": 4096, "iters": 64, "params": [9, 16, 25]}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(body)))
		rr := httptest.NewRecorder()
		fuzzTarget().ServeHTTP(rr, req)
		if rr.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422\n%s", name, rr.Code, rr.Body.Bytes())
		}
	}
}
