package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"balarch"
	"balarch/client"
	"balarch/internal/cluster"
	"balarch/internal/loadgen"
	"balarch/internal/obs"
	"balarch/internal/server"
)

// scrape sums every node's /metrics?format=prometheus exposition by
// series ("name{labels}" → value).
func scrape(urls []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range urls {
		resp, err := probeClient.Get(u + "/metrics?format=prometheus")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s/metrics: status %d", u, resp.StatusCode)
		}
		for _, line := range strings.Split(string(body), "\n") {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || line[0] == '#' {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum[line[:i]] += v
			}
		}
	}
	return sum, nil
}

// promLayers derives the server, engine, jobs and store metrics from the
// /metrics deltas across the traced window.
func promLayers(r *result, before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	stage := func(st string) (sum, count float64) {
		return delta(`balarch_stage_latency_seconds_sum{stage="` + st + `"}`),
			delta(`balarch_stage_latency_seconds_count{stage="` + st + `"}`)
	}
	meanUS := func(st string) float64 {
		sum, n := stage(st)
		return ratio(sum, n) * 1e6
	}

	var requests float64
	for series := range after {
		if strings.HasPrefix(series, "balarch_requests_total{") {
			requests += delta(series)
		}
	}
	encode, _ := stage("encode")
	r.set("server.encode_us", ratio(encode, requests)*1e6)
	r.set("server.requests", requests)

	hits, misses := delta("balarch_sweep_cache_hits_total"), delta("balarch_sweep_cache_misses_total")
	r.set("engine.sweep_hit_ratio", ratio(hits, hits+misses))
	r.set("engine.sweep_misses", misses)

	// The async path runs admit through publish; store_put, part of it,
	// reports under the store layer.
	done := delta(`balarch_jobs{state="done"}`)
	var perJob float64
	for st := obs.StageAdmit; st <= obs.StagePublish; st++ {
		sum, _ := stage(st.String())
		perJob += sum
		if st != obs.StageStorePut {
			r.set("jobs."+st.String()+"_us", meanUS(st.String()))
		}
	}
	_, appends := stage("wal_append")
	r.set("jobs.stages_per_job_us", ratio(perJob, done)*1e6)
	r.set("jobs.wal_appends_per_job", ratio(appends, done))
	r.set("jobs.done", done)
	r.set("jobs.failed", delta(`balarch_jobs{state="failed"}`))

	r.set("store.put_us", meanUS("store_put"))
	storeHits, storeMisses := delta("balarch_store_hits_total"), delta("balarch_store_misses_total")
	r.set("store.hit_ratio", ratio(storeHits, storeHits+storeMisses))
	r.set("store.bytes_per_job", ratio(delta("balarch_store_bytes"), done))
}

// modelSink keeps timed results live so the compiler cannot drop the
// calls that produce them.
var modelSink float64

// modelCall is one plan body's model computation, decoded ahead of time.
type modelCall func() float64

// modelLayer times the plan's analyze, rebalance and roofline bodies
// through the balarch model API, decoded outside the timer, and reports
// the model's share of the untraced request time rttUS.
func modelLayer(r *result, plan []loadgen.Request, rttUS float64) {
	calls := map[string][]modelCall{}
	for _, q := range plan {
		var (
			kind   string
			decode func([]byte) (modelCall, error)
		)
		switch q.Route {
		case "POST /v1/analyze":
			kind, decode = "analyze", analyzeCall
		case "POST /v1/rebalance":
			kind, decode = "rebalance", rebalanceCall
		case "POST /v1/roofline":
			kind, decode = "roofline", rooflineCall
		default:
			continue
		}
		fn, err := decode(q.Body)
		if err != nil {
			r.fail("model: %s: %v", q.Route, err)
			return
		}
		calls[kind] = append(calls[kind], fn)
	}
	var perRequest float64 // model ns per plan request
	for kind, fns := range calls {
		ns := timeCalls(fns)
		r.set("model."+kind+"_ns", ns)
		perRequest += ns * float64(len(fns)) / float64(len(plan))
	}
	r.set("model.share_pct", ratio(perRequest/1e3, rttUS)*100)
}

// timeCalls returns the mean ns per call: the median of three timed
// passes over every call, after one untimed pass.
func timeCalls(fns []modelCall) float64 {
	var acc float64
	for _, f := range fns {
		acc += f()
	}
	passes := make([]float64, 3)
	for i := range passes {
		t0 := time.Now()
		for _, f := range fns {
			acc += f()
		}
		passes[i] = float64(time.Since(t0)) / float64(len(fns))
	}
	modelSink += acc
	return median(passes)
}

func analyzeCall(body []byte) (modelCall, error) {
	var req client.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	comp, err := computation(req.Computation)
	if err != nil {
		return nil, err
	}
	if len(req.Levels) > 0 {
		h := hierarchy(req.PE.C, req.Levels)
		return func() float64 {
			a, _ := balarch.AnalyzeHierarchy(h, comp)
			return float64(a.Binding)
		}, nil
	}
	pe := balarch.PE{C: req.PE.C, IO: req.PE.IO, M: req.PE.M}
	return func() float64 {
		a, _ := balarch.Analyze(pe, comp)
		return a.Intensity
	}, nil
}

func rebalanceCall(body []byte) (modelCall, error) {
	var req client.RebalanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	comp, err := computation(req.Computation)
	if err != nil {
		return nil, err
	}
	if len(req.Levels) > 0 {
		h := hierarchy(req.C, req.Levels)
		return func() float64 {
			rb, _ := balarch.RebalanceHierarchy(h, comp, req.Alpha)
			return rb.TotalMemory
		}, nil
	}
	// Both answers the handler returns: the numeric inversion and the
	// closed form. Θ(1) computations answer ErrNotRebalanceable, a valid
	// result.
	return func() float64 {
		m, _ := comp.Rebalance(req.Alpha, req.MOld, balarch.DefaultMaxMemory)
		cf, _ := comp.RebalanceClosedForm(req.Alpha, req.MOld)
		return m + cf
	}, nil
}

func rooflineCall(body []byte) (modelCall, error) {
	var req client.RooflineRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	comps := make([]balarch.Computation, len(req.Computations))
	for i, d := range req.Computations {
		c, err := computation(d)
		if err != nil {
			return nil, err
		}
		comps[i] = c
	}
	step := req.Step
	if step == 0 {
		step = 4
	}
	if len(req.Levels) > 0 {
		h := hierarchy(req.PE.C, req.Levels)
		level := max(req.SweepLevel, 1)
		return func() float64 {
			m, err := balarch.HierarchyRoofline(h)
			if err != nil {
				return 0
			}
			n := float64(len(m.Ridges()))
			for _, c := range comps {
				pts, _ := m.Path(c, level, req.MemLo, req.MemHi, step)
				n += float64(len(pts))
			}
			return n
		}, nil
	}
	pe := balarch.PE{C: req.PE.C, IO: req.PE.IO, M: req.PE.M}
	return func() float64 {
		m, err := balarch.Roofline(pe)
		if err != nil {
			return 0
		}
		n := m.RidgeIntensity()
		for _, c := range comps {
			pts, _ := m.Path(c, req.MemLo, req.MemHi, step)
			n += float64(len(pts))
		}
		return n
	}, nil
}

// computation resolves a wire computation to its catalog entry, with the
// API's defaults (grid dimension 2, 16 convolution taps).
func computation(d client.Computation) (balarch.Computation, error) {
	switch d.Name {
	case "matmul":
		return balarch.MatrixMultiplication(), nil
	case "triangularization":
		return balarch.MatrixTriangularization(), nil
	case "grid":
		if d.Dim == 0 {
			return balarch.Grid(2), nil
		}
		return balarch.Grid(d.Dim), nil
	case "fft":
		return balarch.FFT(), nil
	case "sorting":
		return balarch.Sorting(), nil
	case "matvec":
		return balarch.MatrixVector(), nil
	case "trisolve":
		return balarch.TriangularSolve(), nil
	case "spmv":
		return balarch.SparseMatVec(), nil
	case "convolution":
		if d.Taps == 0 {
			return balarch.Convolution(16), nil
		}
		return balarch.Convolution(d.Taps), nil
	}
	return balarch.Computation{}, fmt.Errorf("unknown computation %q", d.Name)
}

func hierarchy(c float64, levels []client.Level) balarch.Hierarchy {
	h := balarch.Hierarchy{C: c, Levels: make([]balarch.Level, len(levels))}
	for i, l := range levels {
		h.Levels[i] = balarch.Level{Name: l.Name, BW: l.BW, M: l.M}
	}
	return h
}

// replayable marks the routes one node answers alone, so the same request
// sent straight to that node does the same work without the gateway.
var replayable = map[string]bool{
	"POST /v1/analyze": true, "POST /v1/rebalance": true, "POST /v1/roofline": true,
	"POST /v1/emulation": true, "POST /v1/sweep": true,
}

// hopSamples bounds the gateway-hop replay.
const hopSamples = 2000

// hopReplay sends the plan's single-node requests through the gateway and
// then straight to the node that answered (X-Balarch-Node), one at a
// time, for at most hopSamples pairs or budget, and returns the mean
// difference in µs: what the gateway hop adds.
func hopReplay(ctx context.Context, r *result, d *deployment, plan []loadgen.Request, budget time.Duration) float64 {
	gw, err := client.New(d.target)
	if err != nil {
		r.fail("replay: %v", err)
		return 0
	}
	nodes := map[string]*client.Client{}
	for id, u := range d.nodes {
		if nodes[id], err = client.New(u); err != nil {
			r.fail("replay: %v", err)
			return 0
		}
	}
	var via, direct []int64
	deadline := time.Now().Add(budget)
	for _, q := range plan {
		if len(via) == hopSamples || time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		if !replayable[q.Route] {
			continue
		}
		t0 := time.Now()
		a, err := gw.Do(ctx, q.Method, q.Path, q.Body)
		t1 := time.Now()
		if err != nil || !q.Expected(a.Status) {
			r.fail("replay %s via the gateway: %s", q.Route, statusOrErr(a, err))
			continue
		}
		nc := nodes[a.Header.Get(server.NodeHeader)]
		if nc == nil {
			r.fail("replay %s: no known %s header", q.Route, server.NodeHeader)
			continue
		}
		t2 := time.Now()
		b, err := nc.Do(ctx, q.Method, q.Path, q.Body)
		t3 := time.Now()
		if err != nil || !q.Expected(b.Status) {
			r.fail("replay %s direct: %s", q.Route, statusOrErr(b, err))
			continue
		}
		r.Attempted += 2
		via = append(via, int64(t1.Sub(t0)))
		direct = append(direct, int64(t3.Sub(t2)))
	}
	return (mean(via) - mean(direct)) / 1e3
}

// ringOwnerNS times cluster.Ring.Owner, on a ring of the deployment's
// nodes, over the routing keys of the plan's sweeps.
func ringOwnerNS(d *deployment, plan []loadgen.Request) float64 {
	var keys [][]byte
	for _, q := range plan {
		if q.Route != "POST /v1/sweep" {
			continue
		}
		if k, ok := server.RouteKeyForSweep(q.Body); ok {
			keys = append(keys, []byte(k))
		}
	}
	if len(keys) == 0 {
		return 0
	}
	ring := cluster.NewRing(0, d.nodeURLs())
	const calls = 1 << 20
	var owners int
	t0 := time.Now()
	for i := range calls {
		owners += len(ring.Owner(keys[i%len(keys)]))
	}
	ns := float64(time.Since(t0)) / calls
	modelSink += float64(owners)
	return ns
}
