package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestOpTableAgreement holds the three paths through the op table to one
// answer: for a valid request of every op, the synchronous response, the
// stored job result and the /v1/batch item body (compacted) are
// byte-equal, and RouteIDForJob predicts the id the submit assigns. Each
// path gets a fresh server, so every sweep memo is equally cold.
func TestOpTableAgreement(t *testing.T) {
	for _, tc := range []struct {
		op, path, req string
	}{
		{"analyze", "/v1/analyze", `{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`},
		{"rebalance", "/v1/rebalance", `{"computation": {"name": "matmul"}, "alpha": 4, "m_old": 1024}`},
		{"roofline", "/v1/roofline", `{"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computations": [{"name": "grid"}], "mem_lo": 64, "mem_hi": 4096}`},
		{"sweep", "/v1/sweep", `{"kernel": "matmul", "n": 64, "params": [8, 4]}`},
		{"experiment", "/v1/experiments/E7", `{"id": "E7"}`},
		{"batch", "/v1/batch", `{"requests": [{"op": "rebalance", "request": {"computation": {"name": "fft"}, "alpha": 2, "m_old": 64}}]}`},
	} {
		if findOp(opTable, tc.op) == nil {
			t.Fatalf("%s: not in the op table", tc.op)
		}
		syncBody := tc.req
		if tc.op == "experiment" {
			syncBody = "" // the id rides in the path
		}
		rr := do(New(Options{Parallelism: 2}).Handler(), http.MethodPost, tc.path, syncBody)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: sync status %d\n%s", tc.op, rr.Code, rr.Body.Bytes())
		}
		sync := rr.Body.Bytes()

		h := newJobsServer(t, Options{}).Handler()
		submit := fmt.Sprintf(`{"op": %q, "request": %s}`, tc.op, tc.req)
		dto, code := submitJob(t, h, submit)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", tc.op, code)
		}
		if id, ok := RouteIDForJob([]byte(submit)); !ok || id != dto.ID {
			t.Errorf("%s: RouteIDForJob = %q, %v; the submit assigned %q", tc.op, id, ok, dto.ID)
		}
		waitJobDone(t, h, dto.ID)
		rr = do(h, http.MethodGet, "/v1/jobs/"+dto.ID+"/result", "")
		if !bytes.Equal(rr.Body.Bytes(), sync) {
			t.Errorf("%s: job result differs from the sync response\njob:  %s\nsync: %s", tc.op, rr.Body.Bytes(), sync)
		}

		if tc.op == "batch" {
			continue // batches do not nest
		}
		rr = do(New(Options{Parallelism: 2}).Handler(), http.MethodPost, "/v1/batch",
			fmt.Sprintf(`{"requests": [%s]}`, submit))
		var batch struct{ Results []BatchResult }
		if err := json.Unmarshal(rr.Body.Bytes(), &batch); err != nil || len(batch.Results) != 1 {
			t.Fatalf("%s: batch response %d %s (%v)", tc.op, rr.Code, rr.Body.Bytes(), err)
		}
		// The batch response is indented as a whole, so its item bodies
		// are compared compacted.
		var item, want bytes.Buffer
		if err := json.Compact(&want, sync); err != nil {
			t.Fatal(err)
		}
		got := batch.Results[0]
		if err := json.Compact(&item, got.Body); err != nil || got.Status != http.StatusOK {
			t.Fatalf("%s: batch item %d %s (%v)", tc.op, got.Status, got.Body, err)
		}
		if !bytes.Equal(item.Bytes(), want.Bytes()) {
			t.Errorf("%s: batch item differs from the sync response\nitem: %s\nsync: %s",
				tc.op, item.Bytes(), want.Bytes())
		}
	}
}

// TestSweepJobCostBytes pins the admission footprint of sweep jobs: the
// base plus the kernel row's working set. A hierarchy sweep is priced by
// the n it carries, and a kernel name in any case by its row.
func TestSweepJobCostBytes(t *testing.T) {
	h := newJobsServer(t, Options{JobWorkers: -1}).Handler()
	for _, tc := range []struct {
		req  string
		want int64
	}{
		{`{"kernel": "sort", "params": [64, 128]}`, 64<<10 + (64*64+128*128)*8},
		{`{"kernel": "SORT", "params": [64, 128]}`, 64<<10 + (64*64+128*128)*8},
		{`{"kernel": "grid", "dim": 2, "size": 64, "iters": 4, "params": [16, 32]}`, 64<<10 + 64*64*8},
		{`{"kernel": "matmul", "n": 256, "params": [8, 16]}`, 64<<10 + 256*8},
		{`{"kernel": "hierarchy", "n": 1000, "c": 1e9, "levels": [{"name": "sram", "bw": 4e9, "m": 1024}, {"name": "dram", "bw": 1e9, "m": 262144}], "computation": {"name": "matmul"}, "params": [512, 1024]}`, 64<<10 + 1000*8},
	} {
		dto, code := submitJob(t, h, `{"op": "sweep", "request": `+tc.req+`}`)
		if code != http.StatusAccepted || dto.CostBytes != tc.want {
			t.Errorf("%s: status %d cost_bytes %d, want 202 with %d", tc.req, code, dto.CostBytes, tc.want)
		}
	}
}
