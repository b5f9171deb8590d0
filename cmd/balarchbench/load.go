package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// subWindows splits the measured window: throughput is the median of the
// per-sub-window rates, so one stall moves one of five numbers, not the
// result.
const subWindows = 5

// worker is one closed-loop client's private record of its operations.
// Nothing in it is shared until the loop has ended.
type worker struct {
	measuring bool // the current operation started inside the window

	lat, ack, read    []int64 // ns: per-operation latency; jobs' ack and follow-up reads
	sub               [subWindows]int64
	attempted, failed int64
	errs              []string
	saved             []saved          // answers kept for the byte-identity checks
	answers           int              // answers eligible for those checks so far
	nodes             map[string]int64 // X-Balarch-Node counts in a traced window
	traces            []traceRec
	traceCap          int
}

// saved is one answer kept for a byte-identity check against an
// in-process server: the plan index that produced it and the bytes.
type saved struct {
	index int
	body  []byte
}

// checkEvery keeps every checkEvery-th eligible answer for checking.
const checkEvery = 64

// keep saves body for checking when it is the checkEvery-th eligible one.
func (w *worker) keep(index int, body []byte) {
	w.answers++
	if w.answers%checkEvery == 0 {
		w.saved = append(w.saved, saved{index, body})
	}
}

// fail counts the current operation as failed and keeps the first reasons.
func (w *worker) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 4 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// sample appends d to s while the operation counts toward the window.
func (w *worker) sample(s *[]int64, d time.Duration) {
	if w.measuring {
		*s = append(*s, int64(d))
	}
}

// trace returns a fresh span record for the current operation, or nil
// when spans are not wanted or the memory cap is reached.
func (w *worker) trace() *traceRec {
	if !w.measuring || len(w.traces) >= w.traceCap {
		return nil
	}
	w.traces = append(w.traces, traceRec{})
	return &w.traces[len(w.traces)-1]
}

// op runs one closed-loop operation. k is the worker's position in the
// shared plan order; failures are recorded with w.fail.
type op func(ctx context.Context, w *worker, k int)

// maxTraces caps the spans one traced window keeps in memory.
const maxTraces = 1 << 16

// loop runs n closed-loop workers: each starts its next operation as soon
// as the last one returns. Operations that start in the first warm are
// not measured; the loop stops starting operations once warm+window has
// passed. traced enables span records.
func loop(ctx context.Context, n int, warm, window time.Duration, traced bool, fn op) *worker {
	ws := make([]*worker, n)
	begin := time.Now()
	measureAt := begin.Add(warm)
	end := measureAt.Add(window)
	sub := window / subWindows
	var wg sync.WaitGroup
	for i := range ws {
		w := &worker{nodes: map[string]int64{}}
		if traced {
			w.traceCap = maxTraces / n
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; ctx.Err() == nil; k += n {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				w.measuring = !t0.Before(measureAt)
				w.attempted++
				fn(ctx, w, k)
				if w.measuring {
					w.sub[min(int(t0.Sub(measureAt)/sub), subWindows-1)]++
				}
			}
		}()
	}
	wg.Wait()
	return merge(ws)
}

// merge folds the workers into one record with sorted samples.
func merge(ws []*worker) *worker {
	m := &worker{nodes: map[string]int64{}}
	for _, w := range ws {
		m.lat = append(m.lat, w.lat...)
		m.ack = append(m.ack, w.ack...)
		m.read = append(m.read, w.read...)
		for i := range m.sub {
			m.sub[i] += w.sub[i]
		}
		m.attempted += w.attempted
		m.failed += w.failed
		m.errs = append(m.errs, w.errs...)
		m.saved = append(m.saved, w.saved...)
		for k, v := range w.nodes {
			m.nodes[k] += v
		}
		m.traces = append(m.traces, w.traces...)
	}
	for _, s := range [][]int64{m.lat, m.ack, m.read} {
		slices.Sort(s)
	}
	return m
}

// quantile is the nearest-rank q-quantile of sorted ns samples, in ns.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return float64(sorted[min(max(rank, 1), len(sorted))-1])
}

// mean of ns samples, in ns.
func mean(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// rate is the median sub-window throughput in operations per second.
func rate(counts [subWindows]int64, sub time.Duration) float64 {
	r := make([]float64, subWindows)
	for i, c := range counts {
		r[i] = float64(c) / sub.Seconds()
	}
	return median(r)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
