package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"balarch/internal/jobs"
)

// contextWithTimeout is a shorthand for the drain deadlines these tests
// hand to Server.Close.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// newJobsServer returns a jobs-enabled server rooted in a temp dir,
// closed on test cleanup.
func newJobsServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.StoreDir == "" {
		opts.StoreDir = t.TempDir()
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = 2
	}
	srv := New(opts)
	if srv.JobsErr() != nil {
		t.Fatalf("jobs failed to open: %v", srv.JobsErr())
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv
}

// do posts one request at the handler and returns the recorder.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// submitJob posts the envelope and returns the decoded status.
func submitJob(t *testing.T, h http.Handler, body string) (JobStatusDTO, int) {
	t.Helper()
	rr := do(h, http.MethodPost, "/v1/jobs", body)
	var dto JobStatusDTO
	if rr.Code == http.StatusOK || rr.Code == http.StatusAccepted {
		if err := json.Unmarshal(rr.Body.Bytes(), &dto); err != nil {
			t.Fatalf("submit response: %v\n%s", err, rr.Body.Bytes())
		}
	}
	return dto, rr.Code
}

// waitJobDone polls the status endpoint until the job is done.
func waitJobDone(t *testing.T, h http.Handler, id string) JobStatusDTO {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rr := do(h, http.MethodGet, "/v1/jobs/"+id, "")
		var dto JobStatusDTO
		if rr.Code == http.StatusOK {
			if err := json.Unmarshal(rr.Body.Bytes(), &dto); err != nil {
				t.Fatal(err)
			}
			switch dto.State {
			case "done":
				return dto
			case "failed", "canceled":
				t.Fatalf("job %s ended %s: %s", id, dto.State, dto.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed (last: %d %s)", id, rr.Code, rr.Body.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const sweepJobBody = `{"op": "sweep", "request": {"kernel": "matmul", "n": 64, "params": [4, 8]}}`

// TestJobLifecycleAndByteIdenticalResult drives the full async path:
// submit, poll to done, fetch the result — and requires the result bytes
// to equal what the synchronous endpoint returns for the same request on
// a fresh (cold-cache) server.
func TestJobLifecycleAndByteIdenticalResult(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()

	dto, code := submitJob(t, h, sweepJobBody)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if dto.ID == "" || dto.Op != "sweep" {
		t.Fatalf("submit dto = %+v", dto)
	}
	done := waitJobDone(t, h, dto.ID)
	if done.ResultKey == "" || done.FinishedAt == "" {
		t.Errorf("done job missing result key or finish time: %+v", done)
	}

	rr := do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", rr.Code, rr.Body.Bytes())
	}
	asyncBody := rr.Body.Bytes()

	// The synchronous answer, from a fresh server so its sweep memo is as
	// cold as the job executor's was.
	fresh := New(Options{Parallelism: 2})
	sync := do(fresh.Handler(), http.MethodPost, "/v1/sweep",
		`{"kernel": "matmul", "n": 64, "params": [4, 8]}`)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync sweep status %d", sync.Code)
	}
	if !bytes.Equal(asyncBody, sync.Body.Bytes()) {
		t.Errorf("async result differs from the synchronous response:\nasync: %s\nsync:  %s",
			asyncBody, sync.Body.Bytes())
	}
}

// TestJobDedupNoReExecution pins the content-store acceptance criterion
// at the API level: an identical request resubmitted — including against
// a brand-new server over the same store directory — never re-runs the
// kernels. The sweep memo's miss counter is the execution count.
func TestJobDedupNoReExecution(t *testing.T) {
	dir := t.TempDir()
	srv := newJobsServer(t, Options{StoreDir: dir})
	h := srv.Handler()

	first, _ := submitJob(t, h, sweepJobBody)
	waitJobDone(t, h, first.ID)
	if got := srv.Metrics().Snapshot().CacheMisses; got != 1 {
		t.Fatalf("first job: %d sweep misses, want 1", got)
	}

	// Same request again on the same server: joins the done job.
	second, code := submitJob(t, h, sweepJobBody)
	if code != http.StatusOK || second.ID != first.ID || second.State != "done" {
		t.Fatalf("resubmit = %d %+v, want 200 done with the same id", code, second)
	}
	if got := srv.Metrics().Snapshot().CacheMisses; got != 1 {
		t.Errorf("resubmit re-ran the kernels: %d misses", got)
	}

	// Forget the job record (DELETE keeps the content-addressed blob),
	// then restart: a new server over the same store dir, fresh sweep
	// memo, no job to join — the store itself must answer, and the
	// kernels must not run.
	do(h, http.MethodDelete, "/v1/jobs/"+first.ID, "")
	ctx, cancel := contextWithTimeout(5 * time.Second)
	srv.Close(ctx)
	cancel()
	srv2 := newJobsServer(t, Options{StoreDir: dir})
	h2 := srv2.Handler()
	third, code := submitJob(t, h2, sweepJobBody)
	if code != http.StatusOK || third.State != "done" || !third.Cached {
		t.Fatalf("post-restart resubmit = %d %+v, want instant cached done", code, third)
	}
	if got := srv2.Metrics().Snapshot().CacheMisses; got != 0 {
		t.Errorf("post-restart resubmit ran the kernels: %d misses", got)
	}
	// And its result is fetchable.
	rr := do(h2, http.MethodGet, "/v1/jobs/"+third.ID+"/result", "")
	if rr.Code != http.StatusOK || !json.Valid(rr.Body.Bytes()) {
		t.Errorf("post-restart result fetch = %d", rr.Code)
	}
}

// TestJobSubmitValidation: a job the synchronous endpoint would refuse is
// refused at submit with that endpoint's status and code, and nothing is
// journaled. Where msg is set, the message is pinned too.
func TestJobSubmitValidation(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	for name, tc := range map[string]struct {
		body string
		want int
		code string
		msg  string
	}{
		"missing op":         {`{"request": {}}`, 400, "invalid_argument", "job is missing op (one of analyze, rebalance, roofline, sweep, experiment, batch)"},
		"unknown op":         {`{"op": "explode", "request": {}}`, 400, "unknown_op", `unknown job op "explode" (one of analyze, rebalance, roofline, sweep, experiment, batch)`},
		"no request":         {`{"op": "sweep"}`, 400, "bad_json", "job has no request body"},
		"malformed":          {`{`, 400, "bad_json", ""},
		"invalid sweep":      {`{"op": "sweep", "request": {"kernel": "matmul", "n": -1, "params": [4]}}`, 422, "invalid_argument", ""},
		"unknown kernel":     {`{"op": "sweep", "request": {"kernel": "nope", "n": 64, "params": [4]}}`, 422, "unknown_kernel", ""},
		"unknown experiment": {`{"op": "experiment", "request": {"id": "E99"}}`, 404, "unknown_experiment", ""},
		"bad computation":    {`{"op": "analyze", "request": {"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "nope"}}}`, 422, "unknown_computation", ""},
		"nested batch":       {`{"op": "batch", "request": {"requests": [{"op": "batch", "request": {"requests": []}}]}}`, 422, "invalid_argument", "batch item 0: batches do not nest"},
		"empty batch":        {`{"op": "batch", "request": {"requests": []}}`, 422, "invalid_argument", ""},
		"bad batch item":     {`{"op": "batch", "request": {"requests": [{"op": "analyze", "request": {"computation": {"name": "zzz"}}}]}}`, 422, "invalid_argument", ""},
		// The analytic ops are checked by their cores: these three reach
		// the model and are refused there, as the sync endpoints refuse them.
		"negative pe.c":  {`{"op": "analyze", "request": {"pe": {"c": -1, "io": 1, "m": 1}, "computation": {"name": "fft"}}}`, 422, "invalid_argument", ""},
		"alpha below 1":  {`{"op": "rebalance", "request": {"computation": {"name": "matmul"}, "alpha": 0.5, "m_old": 1024}}`, 422, "invalid_argument", ""},
		"roofline step":  {`{"op": "roofline", "request": {"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computations": [{"name": "grid"}], "mem_lo": 64, "mem_hi": 4096, "step": 1.0000001}}`, 422, "invalid_argument", ""},
		"bad batch core": {`{"op": "batch", "request": {"requests": [{"op": "analyze", "request": {"pe": {"c": -1, "io": 1, "m": 1}, "computation": {"name": "fft"}}}]}}`, 422, "invalid_argument", ""},
	} {
		rr := do(h, http.MethodPost, "/v1/jobs", tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d\n%s", name, rr.Code, tc.want, rr.Body.Bytes())
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != tc.code {
			t.Errorf("%s: envelope code %q, want %q", name, env.Error.Code, tc.code)
		}
		if tc.msg != "" && env.Error.Message != tc.msg {
			t.Errorf("%s: message %q, want %q", name, env.Error.Message, tc.msg)
		}
	}
	// Nothing invalid was admitted.
	if c := srv.Jobs().Counters(); c.Queued+c.Running+c.Done+c.Failed > 0 {
		t.Errorf("invalid submissions created jobs: %+v", c)
	}
}

// TestJobAdmissionControl429 pins the memory-aware gate: a sweep whose
// estimated footprint exceeds the budget is 429 with a Retry-After
// header, and is not journaled.
func TestJobAdmissionControl429(t *testing.T) {
	srv := newJobsServer(t, Options{MemBudgetBytes: 128 << 10, JobWorkers: -1})
	h := srv.Handler()
	// sort params [512]: estimated 512²×8 B ≈ 2 MiB ≫ the 128 KiB budget.
	rr := do(h, http.MethodPost, "/v1/jobs",
		`{"op": "sweep", "request": {"kernel": "sort", "params": [512]}}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit = %d, want 429\n%s", rr.Code, rr.Body.Bytes())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var env errorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "over_budget" {
		t.Errorf("429 envelope = %+v, %v", env, err)
	}
	if c := srv.Jobs().Counters(); c.Queued != 0 {
		t.Errorf("over-budget job was journaled: %+v", c)
	}
	// A job inside the budget is accepted (workers paused: stays queued).
	rr = do(h, http.MethodPost, "/v1/jobs",
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("in-budget submit = %d, want 202", rr.Code)
	}
}

func TestJobCancelAndDelete(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1}) // paused: stays queued
	h := srv.Handler()
	dto, _ := submitJob(t, h, sweepJobBody)

	rr := do(h, http.MethodDelete, "/v1/jobs/"+dto.ID, "")
	var del JobDeleteResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &del); err != nil || del.State != "canceled" {
		t.Fatalf("cancel = %d %s", rr.Code, rr.Body.Bytes())
	}
	// Result of a canceled job is 409.
	if rr := do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", ""); rr.Code != http.StatusConflict {
		t.Errorf("canceled result = %d, want 409", rr.Code)
	}
	// Second DELETE forgets the terminal record.
	rr = do(h, http.MethodDelete, "/v1/jobs/"+dto.ID, "")
	if err := json.Unmarshal(rr.Body.Bytes(), &del); err != nil || del.State != "deleted" {
		t.Fatalf("delete = %d %s", rr.Code, rr.Body.Bytes())
	}
	if rr := do(h, http.MethodGet, "/v1/jobs/"+dto.ID, ""); rr.Code != http.StatusNotFound {
		t.Errorf("deleted job get = %d, want 404", rr.Code)
	}
	if rr := do(h, http.MethodDelete, "/v1/jobs/nope", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown delete = %d, want 404", rr.Code)
	}
}

// TestJobsErrorMapping pins the queue-error → envelope mapping,
// including the delete/resubmit race's state conflict (409, never a
// 500 — the envelope contract).
func TestJobsErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{jobs.ErrNotFound, http.StatusNotFound, "unknown_job"},
		{fmt.Errorf("job j1 is running: %w", jobs.ErrNotTerminal), http.StatusConflict, "not_terminal"},
		{jobs.ErrClosed, http.StatusServiceUnavailable, "draining"},
		{&jobs.ErrOverBudget{Cost: 10, InUse: 5, Budget: 8, RetryAfter: 3 * time.Second}, http.StatusTooManyRequests, "over_budget"},
	} {
		ae := asJobsError(tc.err)
		if ae.Status != tc.status || ae.Body.Code != tc.code {
			t.Errorf("asJobsError(%v) = %d %s, want %d %s", tc.err, ae.Status, ae.Body.Code, tc.status, tc.code)
		}
	}
	if ae := asJobsError(&jobs.ErrOverBudget{RetryAfter: 3 * time.Second}); ae.RetryAfterSeconds != 3 {
		t.Errorf("Retry-After seconds = %d, want 3", ae.RetryAfterSeconds)
	}
}

func TestJobResultBeforeDone(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1})
	h := srv.Handler()
	dto, _ := submitJob(t, h, sweepJobBody)
	rr := do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")
	if rr.Code != http.StatusConflict {
		t.Fatalf("queued result = %d, want 409\n%s", rr.Code, rr.Body.Bytes())
	}
	var env errorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "not_done" {
		t.Errorf("envelope = %+v", env)
	}
}

func TestJobListAndFilter(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1})
	h := srv.Handler()
	submitJob(t, h, sweepJobBody)
	submitJob(t, h, `{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`)

	rr := do(h, http.MethodGet, "/v1/jobs", "")
	var list JobListResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list.Jobs) != 2 {
		t.Fatalf("list = %d jobs, %v\n%s", len(list.Jobs), err, rr.Body.Bytes())
	}
	rr = do(h, http.MethodGet, "/v1/jobs?state=done", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list.Jobs) != 0 {
		t.Errorf("done filter over queued jobs = %d jobs", len(list.Jobs))
	}
	rr = do(h, http.MethodGet, "/v1/jobs?state=queued", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || len(list.Jobs) != 2 {
		t.Errorf("queued filter = %d jobs", len(list.Jobs))
	}
}

// TestJobsDisabled: without a store dir every jobs endpoint answers the
// typed 404.
func TestJobsDisabled(t *testing.T) {
	srv := New(Options{Parallelism: 1})
	h := srv.Handler()
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/j0"},
		{http.MethodGet, "/v1/jobs/j0/result"},
		{http.MethodDelete, "/v1/jobs/j0"},
	} {
		rr := do(h, probe.method, probe.path, `{"op": "sweep", "request": {}}`)
		if rr.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, rr.Code)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "jobs_disabled" {
			t.Errorf("%s %s envelope = %+v", probe.method, probe.path, env)
		}
	}
	// Close on a jobs-disabled server is a no-op.
	ctx, cancel := contextWithTimeout(time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestJobsMetricsGauges: the store_* and jobs_* keys move with real
// activity.
func TestJobsMetricsGauges(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	dto, _ := submitJob(t, h, sweepJobBody)
	waitJobDone(t, h, dto.ID)
	// Two result fetches: one may hit the store's LRU, both count hits.
	do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")
	do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")

	rr := do(h, http.MethodGet, "/metrics", "")
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsDone != 1 {
		t.Errorf("jobs_done = %d, want 1", snap.JobsDone)
	}
	if snap.StoreEntries != 1 || snap.StoreBytes <= 0 {
		t.Errorf("store entries/bytes = %d/%d", snap.StoreEntries, snap.StoreBytes)
	}
	if snap.StoreHits < 2 {
		t.Errorf("store_hits = %d, want ≥ 2", snap.StoreHits)
	}
}

// TestJobBatchOp: a whole batch runs as one job and its result matches
// the synchronous /v1/batch body.
func TestJobBatchOp(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	batch := `{"requests": [` +
		`{"op": "analyze", "request": {"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "matmul"}}},` +
		`{"op": "rebalance", "request": {"computation": {"name": "fft"}, "alpha": 2, "m_old": 1024}}]}`
	dto, code := submitJob(t, h, fmt.Sprintf(`{"op": "batch", "request": %s}`, batch))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("batch job submit = %d", code)
	}
	waitJobDone(t, h, dto.ID)
	rr := do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")
	sync := do(New(Options{Parallelism: 2}).Handler(), http.MethodPost, "/v1/batch", batch)
	if !bytes.Equal(rr.Body.Bytes(), sync.Body.Bytes()) {
		t.Errorf("batch job result differs from sync:\nasync: %s\nsync:  %s",
			rr.Body.Bytes(), sync.Body.Bytes())
	}
}

// TestJobCanonicalizationDedup: whitespace and field order do not split
// the content address — both spellings land on one job.
func TestJobCanonicalizationDedup(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1})
	h := srv.Handler()
	a, _ := submitJob(t, h, `{"op": "sweep", "request": {"kernel": "matmul", "n": 64, "params": [4, 8]}}`)
	b, _ := submitJob(t, h, `{"op": "sweep", "request": {  "params": [4, 8],  "n": 64, "kernel": "matmul"}}`)
	if a.ID != b.ID {
		t.Errorf("spellings split the job: %s vs %s", a.ID, b.ID)
	}
	if c := srv.Jobs().Counters(); c.Queued != 1 {
		t.Errorf("counters = %+v, want one queued job", c)
	}
}
