// Command clientsmoke is the smoke checker ci/smoke.sh runs against a
// freshly started balarchd. It performs the checks the old curl pipeline
// performed — health, readiness, the paper's §1 analyze example, a
// cold-then-cached sweep, the typed error envelope, the X-Request-ID and
// trace-id echoes — plus a mixed /v1/batch and a sweep job checked
// byte-for-byte against the sync answer, so the daemon must run with a
// store directory. It works through the public client SDK, so the smoke
// test exercises the same code path SDK users run instead of hand-rolled
// shell JSON matching. The client is built with tracing on, so every
// check also exercises W3C traceparent propagation through the middleware
// chain.
//
// Usage:
//
//	clientsmoke -url http://127.0.0.1:18080 [-wait 5s]
//
// -wait polls /healthz until the daemon answers (for just-started
// servers). Exit status: 0 all checks pass, 1 a check failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"balarch/client"
	"balarch/internal/server"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stderr))
}

// run is main's testable body.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("clientsmoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:18080", "balarchd base URL")
	wait := fs.Duration("wait", 5*time.Second, "how long to poll /healthz for a just-started daemon")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	c, err := client.New(*url, client.WithTracing())
	if err != nil {
		fmt.Fprintln(stderr, "clientsmoke:", err)
		return 1
	}
	if err := smoke(ctx, c, *wait, stderr); err != nil {
		fmt.Fprintln(stderr, "clientsmoke: FAIL:", err)
		return 1
	}
	fmt.Fprintln(stderr, "clientsmoke: OK")
	return 0
}

// smoke runs the check sequence, stopping at the first failure.
func smoke(ctx context.Context, c *client.Client, wait time.Duration, stderr io.Writer) error {
	// 1. Health (with startup polling).
	h, err := c.WaitHealthy(ctx, wait)
	if err != nil {
		return fmt.Errorf("daemon never became healthy: %w", err)
	}
	if h.Status != "ok" || h.Experiments != 16 {
		return fmt.Errorf("healthz = %+v, want status ok with 16 experiments", h)
	}
	fmt.Fprintln(stderr, "clientsmoke: healthz ok")

	// 2. The paper's §1 example: C/IO = 50 against R(4096) = 30 —
	// I/O bound, rebalanceable at M = 2^20.
	a, err := c.Analyze(ctx, &client.AnalyzeRequest{
		PE:          client.PE{C: 50e6, IO: 1e6, M: 4096},
		Computation: client.Computation{Name: "fft"},
	})
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if a.State != "io-bound" || a.Intensity != 50 || a.BalancedMemory != 1<<20 {
		return fmt.Errorf("analyze = %+v, want io-bound at intensity 50, balanced at 2^20", a)
	}
	fmt.Fprintln(stderr, "clientsmoke: analyze ok")

	// 3. Sweep: cold then served from the single-flight memo.
	sweepReq := &client.SweepRequest{Kernel: "matmul", N: 64, Params: []int{4, 8}}
	cold, err := c.Sweep(ctx, sweepReq)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	if cold.Cached || len(cold.Points) != 2 {
		return fmt.Errorf("cold sweep = cached %v with %d points, want fresh with 2", cold.Cached, len(cold.Points))
	}
	warm, err := c.Sweep(ctx, sweepReq)
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	if !warm.Cached {
		return errors.New("second identical sweep was not served from the memo")
	}
	fmt.Fprintln(stderr, "clientsmoke: sweep memo ok")

	// 4. Error envelope: malformed JSON is 400 with a decodable envelope,
	// and the SDK surfaces it as a typed APIError.
	raw, err := c.Do(ctx, http.MethodPost, "/v1/analyze", []byte("{"))
	if err != nil {
		return fmt.Errorf("malformed-body request: %w", err)
	}
	if raw.Status != http.StatusBadRequest {
		return fmt.Errorf("malformed body returned %d, want 400", raw.Status)
	}
	ae := client.DecodeAPIError(raw)
	if ae.Code != "bad_json" || ae.RequestID == "" {
		return fmt.Errorf("envelope decoded to %+v, want code bad_json with a request id", ae)
	}
	_, err = c.Analyze(ctx, &client.AnalyzeRequest{
		PE:          client.PE{C: 1, IO: 1, M: 1},
		Computation: client.Computation{Name: "not-a-computation"},
	})
	var typed *client.APIError
	if !errors.As(err, &typed) || typed.Status != http.StatusUnprocessableEntity {
		return fmt.Errorf("unknown computation error = %v, want a 422 APIError", err)
	}
	fmt.Fprintln(stderr, "clientsmoke: error envelope ok")

	// 5. X-Request-ID echo on a plain probe.
	if raw, err = c.Do(ctx, http.MethodGet, "/healthz", nil); err != nil {
		return err
	} else if raw.Header.Get(client.RequestIDHeader) == "" {
		return errors.New("response missing X-Request-ID")
	}
	fmt.Fprintln(stderr, "clientsmoke: request-id echo ok")

	// 6. The computation catalog: every advertised id must be accepted
	// back by analyze — discovered, not hard-coded.
	cat, err := c.Catalog(ctx)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if len(cat.Computations) < 9 {
		return fmt.Errorf("catalog lists %d computations, want ≥ 9", len(cat.Computations))
	}
	for _, e := range cat.Computations {
		if e.ID == "" || e.Law == "" || e.RatioFamily == "" {
			return fmt.Errorf("catalog entry incomplete: %+v", e)
		}
	}
	first := cat.Computations[0]
	if _, err := c.Analyze(ctx, &client.AnalyzeRequest{
		PE:          client.PE{C: 1e6, IO: 1e6, M: 4096},
		Computation: client.Computation{Name: first.ID},
	}); err != nil {
		return fmt.Errorf("catalog id %q rejected by analyze: %w", first.ID, err)
	}
	fmt.Fprintln(stderr, "clientsmoke: catalog ok")

	// 7. The hierarchy surface end to end: a three-level machine analyzed
	// per boundary.
	ha, err := c.Analyze(ctx, &client.AnalyzeRequest{
		PE: client.PE{C: 1e9},
		Levels: []client.Level{
			{Name: "sram", BW: 4e9, M: 1024},
			{Name: "dram", BW: 1e9, M: 262144},
			{Name: "disk", BW: 1e5, M: 67108864},
		},
		Computation: client.Computation{Name: "matmul"},
	})
	if err != nil {
		return fmt.Errorf("hierarchy analyze: %w", err)
	}
	if len(ha.Boundaries) != 3 || ha.BindingBoundary != 3 || ha.State != "io-bound" {
		return fmt.Errorf("hierarchy analyze = %+v, want 3 boundaries binding at the disk", ha)
	}
	fmt.Fprintln(stderr, "clientsmoke: hierarchy ok")

	// 8. Emulation: Hanlon's question end to end — eight modules behind a
	// perfect interconnect still pay the module port on an io-bound
	// computation, so the first boundary binds and efficiency sits
	// strictly inside (0, 1).
	em, err := c.Emulation(ctx, &client.EmulationRequest{
		C:           100e6,
		Computation: client.Computation{Name: "fft"},
		Modules:     8, ModuleM: 65536, ModuleBW: 1e6,
	})
	if err != nil {
		return fmt.Errorf("emulation: %w", err)
	}
	if em.BindingBoundary != 1 || em.Efficiency <= 0 || em.Efficiency >= 1 {
		return fmt.Errorf("emulation = %+v, want the module port binding with efficiency in (0, 1)", em)
	}
	fmt.Fprintln(stderr, "clientsmoke: emulation ok")

	// 9. The API index: GET /v1/ must advertise every route this smoke
	// exercised, the error code the envelope check drew, and every
	// computation the catalog listed — the index is generated from the
	// server's own route tables, so a hole here is a route added without
	// being advertised.
	idx, err := c.APIIndex(ctx)
	if err != nil {
		return fmt.Errorf("api index: %w", err)
	}
	advertised := make(map[string]bool, len(idx.Routes))
	for _, rt := range idx.Routes {
		if rt.Method == "" || rt.Path == "" || rt.Description == "" {
			return fmt.Errorf("api index route incomplete: %+v", rt)
		}
		advertised[rt.Method+" "+rt.Path] = true
	}
	for _, want := range []string{
		"GET /healthz", "GET /v1/", "GET /v1/catalog",
		"POST /v1/analyze", "POST /v1/sweep", "POST /v1/emulation",
	} {
		if !advertised[want] {
			return fmt.Errorf("api index does not advertise %q (routes: %d)", want, len(idx.Routes))
		}
	}
	codes := make(map[string]bool, len(idx.ErrorCodes))
	for _, code := range idx.ErrorCodes {
		codes[code] = true
	}
	if !codes["bad_json"] || !codes["unknown_computation"] {
		return fmt.Errorf("api index error codes missing bad_json/unknown_computation: %v", idx.ErrorCodes)
	}
	known := make(map[string]bool, len(idx.Computations))
	for _, id := range idx.Computations {
		known[id] = true
	}
	for _, e := range cat.Computations {
		if !known[e.ID] {
			return fmt.Errorf("catalog computation %q absent from the api index", e.ID)
		}
	}
	fmt.Fprintln(stderr, "clientsmoke: api index ok")

	// 10. Readiness: distinct from liveness — a running daemon that has
	// not begun draining must say so.
	rdy, err := c.Ready(ctx)
	if err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	if rdy.Status != "ready" {
		return fmt.Errorf("readyz status = %q, want ready", rdy.Status)
	}
	fmt.Fprintln(stderr, "clientsmoke: readyz ok")

	// 11. Trace propagation end to end: the traced client (every request
	// above carried a sampled traceparent) must get its trace id echoed,
	// and trace=1 must return the stage profile as Server-Timing.
	if raw, err = c.Do(ctx, http.MethodGet, "/healthz", nil); err != nil {
		return err
	}
	if !raw.TraceEchoed() {
		return fmt.Errorf("traced request not echoed: sent %q, got %q",
			raw.Traceparent, raw.Header.Get("Traceparent"))
	}
	if raw, err = c.Do(ctx, http.MethodGet, "/v1/catalog?trace=1", nil); err != nil {
		return err
	}
	if raw.ServerTiming() == "" {
		return errors.New("trace=1 response missing Server-Timing")
	}
	fmt.Fprintln(stderr, "clientsmoke: trace echo ok")

	// 12. Batch: an analyze item and a sweep item in one request, each
	// answered as its standalone endpoint answers.
	br, err := c.Batch(ctx, &client.BatchRequest{Requests: []client.BatchItem{
		{Op: "analyze", Request: json.RawMessage(`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`)},
		{Op: "sweep", Request: json.RawMessage(`{"kernel": "matmul", "n": 64, "params": [4, 8]}`)},
	}})
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(br.Results) != 2 || br.Results[0].Status != http.StatusOK || br.Results[1].Status != http.StatusOK {
		return fmt.Errorf("batch = %+v, want two 200 items", br.Results)
	}
	var ba client.AnalyzeResponse
	if err := json.Unmarshal(br.Results[0].Body, &ba); err != nil || ba.BalancedMemory != a.BalancedMemory {
		return fmt.Errorf("batched analyze = %s (%v), want balanced at %v", br.Results[0].Body, err, a.BalancedMemory)
	}
	fmt.Fprintln(stderr, "clientsmoke: batch ok")

	// 13. A sweep job's stored result is byte-identical to the sync
	// /v1/sweep body. The job runs on the node its id routes to, the sync
	// sweep on the node its memo key routes to (one and the same without
	// a gateway): the result reports "cached" exactly when the two sync
	// calls warmed the job's node.
	sweep := []byte(`{"kernel": "fft", "n": 1024, "params": [4, 16]}`)
	var sync [2]*client.Response
	for i := range sync {
		if sync[i], err = c.Do(ctx, http.MethodPost, "/v1/sweep", sweep); err != nil {
			return fmt.Errorf("sync sweep: %w", err)
		}
		if sync[i].Status != http.StatusOK {
			return fmt.Errorf("sync sweep: %w", client.DecodeAPIError(sync[i]))
		}
	}
	raw, err = c.Do(ctx, http.MethodPost, "/v1/jobs", []byte(`{"op": "sweep", "request": `+string(sweep)+`}`))
	if err != nil {
		return fmt.Errorf("sweep job submit: %w", err)
	}
	var job client.JobStatus
	if raw.Status != http.StatusAccepted && raw.Status != http.StatusOK {
		return fmt.Errorf("sweep job submit: %w", client.DecodeAPIError(raw))
	}
	if err := json.Unmarshal(raw.Body, &job); err != nil {
		return fmt.Errorf("sweep job submit: %w", err)
	}
	done, err := c.WaitForJob(ctx, job.ID, 0)
	if err != nil || done.State != "done" {
		return fmt.Errorf("sweep job %s = %+v (%v), want done", job.ID, done, err)
	}
	result, err := c.JobResult(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("sweep job result: %w", err)
	}
	want := sync[0].Body
	if raw.Header.Get(server.NodeHeader) == sync[0].Header.Get(server.NodeHeader) {
		want = sync[1].Body
	}
	if !bytes.Equal(result, want) {
		return fmt.Errorf("sweep job result differs from the sync body\njob:  %s\nsync: %s", result, want)
	}
	fmt.Fprintln(stderr, "clientsmoke: sweep job ok")
	return nil
}
