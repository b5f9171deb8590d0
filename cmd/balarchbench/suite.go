package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"balarch"
)

// untracedSuite is experiment-suite's end-to-end pass. Its set-up is a
// `experiments -list` run: process start and package initialization, the
// work a suite run pays before it computes anything.
func untracedSuite(ctx context.Context, cfg *config, r *result) {
	bin := filepath.Join(cfg.bins, "experiments")
	var setups []float64
	for range setupRuns {
		var out bytes.Buffer
		t0 := time.Now()
		p, err := start(&out, bin, "-list")
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		<-p.done // -list exits in a few milliseconds
		took := time.Since(t0)
		if p.cmd.ProcessState.ExitCode() != 0 || strings.Count(out.String(), "\n") != len(balarch.ExperimentIDs()) {
			r.fail("set-up: %s", p.failure())
			return
		}
		setups = append(setups, took.Seconds())
	}
	lat, rss := suites(ctx, cfg, r, cfg.window)
	rates := make([]float64, len(lat))
	for i, ns := range lat {
		rates[i] = 1e9 / float64(ns)
	}
	r.set("throughput_ops", median(rates))
	r.set("latency_p50_us", quantile(lat, .50)/1e3)
	r.set("latency_p99_us", quantile(lat, .99)/1e3)
	r.set("setup_s", median(setups))
	r.set("rss_mb", float64(rss)/(1<<20))
	r.extra("samples", float64(len(lat)), "count")
	r.extra("suite_s", quantile(lat, .50)/1e9, "s")
}

// tracedSuite is experiment-suite's per-layer pass: an untraced reference
// of whole suites, then every experiment run alone, in process, with a
// span each, until half the window has passed (at least once).
func tracedSuite(ctx context.Context, cfg *config, r *result) {
	lat, _ := suites(ctx, cfg, r, cfg.window/4)
	ids := balarch.ExperimentIDs()
	ms := map[string][]float64{}
	begin := time.Now()
	for pass := 0; (pass == 0 || time.Since(begin) < cfg.window/2) && ctx.Err() == nil; pass++ {
		var tr traceRec
		root := tr.add("experiments.serial", -1, time.Now(), time.Now())
		for _, id := range ids {
			t0 := time.Now()
			res, err := balarch.RunExperimentContext(ctx, id)
			t1 := time.Now()
			switch {
			case err != nil:
				r.fail("%s: %v", id, err)
				continue
			case !res.Pass():
				r.fail("%s: a claim failed", id)
				continue
			}
			r.Attempted++
			tr.add("experiments."+id, root, t0, t1)
			ms[id] = append(ms[id], float64(t1.Sub(t0))/1e6)
		}
		tr.Spans[root].End = time.Now().UnixNano()
		r.traces = append(r.traces, tr)
	}
	var serial float64
	for _, id := range ids {
		m := median(ms[id])
		r.set("experiments."+id+"_ms", m)
		serial += m
	}
	r.set("experiments.parallel_efficiency", ratio(serial, float64(cfg.workers)*quantile(lat, .50)/1e6))
}

// suites runs `experiments -parallel <workers> -json` back to back,
// starting another run while less than window has passed (at least one),
// and returns the wall times in ns, sorted, and the largest peak RSS of
// any run in bytes: the runs are sequential, so that is the workload's
// peak, as a daemon's high-water mark is its peak over the whole run.
func suites(ctx context.Context, cfg *config, r *result, window time.Duration) (lat []int64, rss int64) {
	bin := filepath.Join(cfg.bins, "experiments")
	begin := time.Now()
	for (len(lat) == 0 || time.Since(begin) < window) && ctx.Err() == nil {
		var out bytes.Buffer
		t0 := time.Now()
		p, err := start(&out, bin, "-parallel", strconv.Itoa(cfg.workers), "-json")
		if err != nil {
			r.fail("suite: %v", err)
			break
		}
		peak := p.wait(ctx)
		took := time.Since(t0)
		if err := checkSuite(p, out.Bytes()); err != nil {
			r.fail("suite: %v", err)
			break
		}
		r.Attempted++
		lat = append(lat, int64(took))
		rss = max(rss, peak)
	}
	slices.Sort(lat)
	return lat, rss
}

// checkSuite accepts a suite run that exited 0 and printed every
// experiment with every claim passing.
func checkSuite(p *proc, out []byte) error {
	if p.cmd.ProcessState.ExitCode() != 0 {
		return errors.New(p.failure())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	seen := 0
	for {
		var res struct {
			ID     string `json:"id"`
			Claims []struct {
				Pass bool `json:"pass"`
			} `json:"claims"`
		}
		err := dec.Decode(&res)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		for _, c := range res.Claims {
			if !c.Pass {
				return fmt.Errorf("%s: a claim failed", res.ID)
			}
		}
		seen++
	}
	if want := len(balarch.ExperimentIDs()); seen != want {
		return fmt.Errorf("%d results, want %d", seen, want)
	}
	return nil
}
