package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"balarch"
	"balarch/client"
	"balarch/internal/loadgen"
	"balarch/internal/server"
)

// kind is how a workload drives the system.
type kind int

const (
	requests kind = iota // a loadgen plan, one request per operation
	jobs                 // job lifecycles from jobPlan
	suite                // experiments CLI runs
)

// workload is one traffic mix; the package doc says why each exists.
type workload struct {
	name     string
	kind     kind
	scenario string // the loadgen scenario of a requests workload
	gateway  bool   // two nodes behind balarchgw instead of one node
}

var workloads = []workload{
	{name: "analyze-flat", scenario: "analyze-heavy"},
	{name: "hierarchy-mix", scenario: "hierarchy-mix"},
	{name: "jobs-durable", kind: jobs},
	{name: "cluster-gateway", scenario: "cluster-mix", gateway: true},
	{name: "experiment-suite", kind: suite},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// planSize is how many inputs a workload builds before timing; request
// plans are cycled, job bodies are each used once.
const planSize = 1 << 16

// plan builds the workload's inputs from the seed; the suite has none.
func (wl workload) plan(seed int64) ([]loadgen.Request, error) {
	switch wl.kind {
	case jobs:
		return jobPlan(seed, planSize), nil
	case suite:
		return nil, nil
	}
	s, err := loadgen.Get(wl.scenario)
	if err != nil {
		return nil, err
	}
	return s.Plan(seed, planSize), nil
}

// jobPlan is jobs-durable's input: n sort-sweep submissions whose kernel
// seeds make every body, and so every content-derived job id, unique in
// the run. A repeated body would be a dedup 200 that skips the WAL, the
// scheduler and the store, the work this workload exists to measure.
func jobPlan(seed int64, n int) []loadgen.Request {
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	plan := make([]loadgen.Request, n)
	for i := range plan {
		body := fmt.Sprintf(`{"op":"sweep","request":{"kernel":"sort","params":[16,32],"seed":%d}}`, base+int64(i))
		plan[i] = loadgen.Request{Route: "POST /v1/jobs", Method: http.MethodPost, Path: "/v1/jobs",
			Body: []byte(body), Expect: []int{http.StatusAccepted}}
	}
	return plan
}

// analytic marks the routes whose answers are checked byte for byte
// against an in-process server.
var analytic = map[string]bool{
	"POST /v1/analyze": true, "POST /v1/rebalance": true,
	"POST /v1/roofline": true, "POST /v1/emulation": true,
}

// withTrace adds the trace=1 opt-in that makes the server answer with a
// Server-Timing header.
func withTrace(path string, traced bool) string {
	switch {
	case !traced:
		return path
	case strings.Contains(path, "?"):
		return path + "&trace=1"
	default:
		return path + "?trace=1"
	}
}

// op returns the workload's closed-loop operation on c. Job lifecycles
// take the next unused body from next, which every loop against one
// server must share.
func (wl workload) op(c *client.Client, plan []loadgen.Request, next *atomic.Int64, traced bool) op {
	if wl.kind == jobs {
		return jobOp(c, plan, next, traced)
	}
	return requestOp(c, plan, traced)
}

// requestOp sends the plan's requests in order.
func requestOp(c *client.Client, plan []loadgen.Request, traced bool) op {
	return func(ctx context.Context, w *worker, k int) {
		i := k % len(plan)
		q := plan[i]
		tr := w.trace()
		t0 := time.Now()
		resp, err := c.Do(ctx, q.Method, withTrace(q.Path, traced), q.Body)
		t1 := time.Now()
		if err != nil {
			w.fail("%s: %v", q.Route, err)
			return
		}
		if !q.Expected(resp.Status) {
			w.fail("%s: status %d", q.Route, resp.Status)
			return
		}
		w.sample(&w.lat, t1.Sub(t0))
		tr.addHTTP(-1, t0, t1, resp)
		if node := resp.Header.Get(server.NodeHeader); traced && node != "" {
			w.nodes[node]++
		}
		if analytic[q.Route] {
			w.keep(i, resp.Body)
		}
	}
}

// jobOp runs one job lifecycle (submit, wait on the SSE stream, fetch the
// result; its latency is submit to result bytes) and then the three
// follow-up reads.
func jobOp(c *client.Client, plan []loadgen.Request, next *atomic.Int64, traced bool) op {
	return func(ctx context.Context, w *worker, _ int) {
		i := int(next.Add(1) - 1)
		if i >= len(plan) {
			w.fail("all %d job bodies used", len(plan))
			return
		}
		q := plan[i]
		tr := w.trace()
		t0 := time.Now()
		sub, err := c.Do(ctx, q.Method, withTrace(q.Path, traced), q.Body)
		tAck := time.Now()
		if err != nil {
			w.fail("submit: %v", err)
			return
		}
		if !q.Expected(sub.Status) {
			w.fail("submit: status %d, want 202 (200 is a dedup, 429 a refusal)", sub.Status)
			return
		}
		var st client.JobStatus
		if err := json.Unmarshal(sub.Body, &st); err != nil || st.ID == "" {
			w.fail("submit: unreadable ack %q", sub.Body)
			return
		}
		done, err := c.WaitForJob(ctx, st.ID, 0)
		tWait := time.Now()
		if err != nil {
			w.fail("wait %s: %v", st.ID, err)
			return
		}
		if done.State != "done" {
			w.fail("job %s ended %s: %s", st.ID, done.State, done.Error)
			return
		}
		res, err := c.Do(ctx, http.MethodGet, withTrace("/v1/jobs/"+st.ID+"/result", traced), nil)
		tRes := time.Now()
		if err != nil || res.Status != http.StatusOK {
			w.fail("result %s: %s", st.ID, statusOrErr(res, err))
			return
		}
		w.sample(&w.ack, tAck.Sub(t0))
		w.sample(&w.lat, tRes.Sub(t0))
		life := tr.add("client.lifecycle", -1, t0, tRes)
		tr.addHTTP(life, t0, tAck, sub)
		tr.add("client.wait", life, tAck, tWait)
		tr.addHTTP(life, tWait, tRes, res)
		w.keep(i, res.Body)

		for _, rd := range []struct {
			path string
			ok   func([]byte) bool
		}{
			{"/v1/jobs/" + st.ID, func(b []byte) bool {
				var s client.JobStatus
				return json.Unmarshal(b, &s) == nil && s.State == "done"
			}},
			{"/v1/jobs/" + st.ID + "/result", func(b []byte) bool { return bytes.Equal(b, res.Body) }},
			{"/v1/jobs?limit=50", func([]byte) bool { return true }},
		} {
			r0 := time.Now()
			resp, err := c.Do(ctx, http.MethodGet, withTrace(rd.path, traced), nil)
			r1 := time.Now()
			if err != nil || resp.Status != http.StatusOK || !rd.ok(resp.Body) {
				w.fail("read %s: %s", rd.path, statusOrErr(resp, err))
				return
			}
			w.sample(&w.read, r1.Sub(r0))
			tr.addHTTP(-1, r0, r1, resp)
		}
	}
}

func statusOrErr(resp *client.Response, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("status %d", resp.Status)
}

// measure runs one pass of the workload.
func (wl workload) measure(ctx context.Context, cfg *config, traced bool) *result {
	r := newResult(wl.name, traced)
	switch {
	case wl.kind == suite && traced:
		tracedSuite(ctx, cfg, r)
	case wl.kind == suite:
		untracedSuite(ctx, cfg, r)
	case traced:
		wl.traced(ctx, cfg, r)
	default:
		wl.untraced(ctx, cfg, r)
	}
	return r
}

// untraced is the end-to-end pass of an HTTP workload.
func (wl workload) untraced(ctx context.Context, cfg *config, r *result) {
	plan, err := wl.plan(cfg.seed)
	if err != nil {
		r.fail("plan: %v", err)
		return
	}
	var (
		setups []float64
		d      *deployment
	)
	for range setupRuns {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = deploy(ctx, cfg, wl.gateway); err != nil {
			r.fail("set-up: %v", err)
			return
		}
		setups = append(setups, took.Seconds())
	}
	c, err := client.New(d.target)
	if err != nil {
		d.stop()
		r.fail("client: %v", err)
		return
	}
	t := loop(ctx, cfg.workers, cfg.sub(), cfg.window, false, wl.op(c, plan, new(atomic.Int64), false))
	rss := d.stop()
	r.tally(t)
	wl.verify(ctx, r, plan, t.saved)

	r.set("throughput_ops", rate(t.sub, cfg.sub()))
	r.set("latency_p50_us", quantile(t.lat, .50)/1e3)
	r.set("latency_p99_us", quantile(t.lat, .99)/1e3)
	r.set("setup_s", median(setups))
	r.set("rss_mb", float64(rss)/(1<<20))
	r.extra("samples", float64(len(t.lat)), "count")
	if wl.kind == jobs {
		r.extra("job_ack_p50_us", quantile(t.ack, .50)/1e3, "us")
		r.extra("job_ack_p99_us", quantile(t.ack, .99)/1e3, "us")
		r.extra("job_turnaround_p50_ms", quantile(t.lat, .50)/1e6, "ms")
		r.extra("job_turnaround_p99_ms", quantile(t.lat, .99)/1e6, "ms")
		r.extra("job_read_p50_us", quantile(t.read, .50)/1e3, "us")
		r.extra("job_read_p99_us", quantile(t.read, .99)/1e3, "us")
	}
}

// traced is the per-layer pass of an HTTP workload: an untraced reference
// window, a traced window bracketed by /metrics scrapes, then the layer
// probes that run outside the daemons' load.
func (wl workload) traced(ctx context.Context, cfg *config, r *result) {
	plan, err := wl.plan(cfg.seed)
	if err != nil {
		r.fail("plan: %v", err)
		return
	}
	d, _, err := deploy(ctx, cfg, wl.gateway)
	if err != nil {
		r.fail("set-up: %v", err)
		return
	}
	defer d.stop()
	c, err := client.New(d.target)
	if err != nil {
		r.fail("client: %v", err)
		return
	}
	tc, err := client.New(d.target, client.WithTracing())
	if err != nil {
		r.fail("client: %v", err)
		return
	}
	next := new(atomic.Int64)
	ref := loop(ctx, cfg.workers, cfg.sub(), cfg.window/4, false, wl.op(c, plan, next, false))
	before, err := scrape(d.nodeURLs())
	if err != nil {
		r.fail("scrape: %v", err)
		return
	}
	tw := loop(ctx, cfg.workers, 0, cfg.window/2, true, wl.op(tc, plan, next, true))
	after, err := scrape(d.nodeURLs())
	if err != nil {
		r.fail("scrape: %v", err)
		return
	}
	r.tally(ref)
	r.tally(tw)
	r.traces = tw.traces
	wl.verify(ctx, r, plan, append(ref.saved, tw.saved...))

	ls := layers(tw.traces)
	get := func(name string) layer {
		if l := ls[name]; l != nil {
			return *l
		}
		return layer{}
	}
	req := get("client.request")
	perReq := func(ns int64) float64 { return ratio(float64(ns), float64(req.n)) / 1e3 }
	rtt := perReq(req.dur)
	inproc := wl.inProcess(ctx, cfg, r, plan)
	r.set("client.rtt_us", rtt)
	r.set("client.inproc_us", inproc)
	r.set("client.transport_us", rtt-inproc)
	r.set("server.total_us", perReq(get("server.total").dur))
	r.set("server.outside_us", perReq(req.self))
	for _, st := range []string{"decode", "cache_lookup", "compute"} {
		r.set("server."+st+"_us", perReq(get("server."+st).dur))
	}
	selfTimes(r, ls)
	promLayers(r, before, after)
	modelLayer(r, plan, mean(ref.lat)/1e3)
	if wl.gateway {
		r.set("cluster.outside_node_us", perReq(req.self))
		r.set("cluster.hop_us", hopReplay(ctx, r, d, plan, cfg.sub()))
		r.set("cluster.ring_owner_ns", ringOwnerNS(d, plan))
		var total, most int64
		for _, n := range tw.nodes {
			total += n
			most = max(most, n)
		}
		r.set("cluster.node_skew", ratio(float64(most), float64(total)/float64(len(d.nodes))))
	}
	p50, ref50 := quantile(tw.lat, .50), quantile(ref.lat, .50)
	r.set("obs.trace_overhead_pct", ratio(p50-ref50, ref50)*100)
	r.extra("untraced_p50_us", ref50/1e3, "us")
	r.extra("traced_p50_us", p50/1e3, "us")
}

// inProcess runs the plan, traced, through the same client bound straight
// to an in-process server's handler, with no socket, and returns the mean
// client.request time in µs.
func (wl workload) inProcess(ctx context.Context, cfg *config, r *result, plan []loadgen.Request) float64 {
	dir, err := os.MkdirTemp(cfg.work, "inproc-")
	if err != nil {
		r.fail("in-process server: %v", err)
		return 0
	}
	defer os.RemoveAll(dir)
	srv := balarch.NewServer(balarch.ServerOptions{TraceSampleEvery: -1, StoreDir: dir})
	defer srv.Close(context.Background())
	if err := srv.JobsErr(); err != nil {
		r.fail("in-process server: %v", err)
		return 0
	}
	c := client.NewFromHandler(srv.Handler(), client.WithTracing())
	t := loop(ctx, cfg.workers, cfg.sub()/4, cfg.sub(), true, wl.op(c, plan, new(atomic.Int64), true))
	r.tally(t)
	l := layers(t.traces)["client.request"]
	if l == nil {
		return 0
	}
	return ratio(float64(l.dur), float64(l.n)) / 1e3
}

// selfTimes reports each span name's mean self time as an extra.
func selfTimes(r *result, ls map[string]*layer) {
	for name, l := range ls {
		r.extra("self."+name+"_us", ratio(float64(l.self), float64(l.n))/1e3, "us")
	}
}

// verify asks an in-process server the same question for every kept
// answer. Analytic answers must match byte for byte; a job result must
// match the synchronous /v1/sweep answer once the cached field, which
// says where the answer came from, is dropped.
func (wl workload) verify(ctx context.Context, r *result, plan []loadgen.Request, kept []saved) {
	if len(kept) == 0 {
		return
	}
	srv := balarch.NewServer(balarch.ServerOptions{TraceSampleEvery: -1})
	defer srv.Close(context.Background())
	c := client.NewFromHandler(srv.Handler())
	for _, s := range kept {
		q := plan[s.index]
		method, path, body := q.Method, q.Path, q.Body
		if wl.kind == jobs {
			var sub client.JobSubmitRequest
			if err := json.Unmarshal(q.Body, &sub); err != nil {
				r.fail("check %s: %v", q.Route, err)
				continue
			}
			method, path, body = http.MethodPost, "/v1/sweep", sub.Request
		}
		want, err := c.Do(ctx, method, path, body)
		if err != nil {
			r.fail("check %s: %v", q.Route, err)
			continue
		}
		same := bytes.Equal(want.Body, s.body)
		if wl.kind == jobs {
			same = equalWithoutCached(want.Body, s.body)
		}
		if !same {
			r.fail("check %s (plan #%d): answer differs from the in-process server's", q.Route, s.index)
			continue
		}
		r.Attempted++
	}
}

// equalWithoutCached compares two sweep answers with their cached fields
// removed.
func equalWithoutCached(a, b []byte) bool {
	strip := func(x []byte) ([]byte, bool) {
		var m map[string]json.RawMessage
		if json.Unmarshal(x, &m) != nil {
			return nil, false
		}
		delete(m, "cached")
		out, err := json.Marshal(m)
		return out, err == nil
	}
	x, okA := strip(a)
	y, okB := strip(b)
	return okA && okB && bytes.Equal(x, y)
}
