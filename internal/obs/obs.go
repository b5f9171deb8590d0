// Package obs is the observability layer of balance-as-a-service:
// request-scoped traces with fixed-capacity span buffers, W3C
// trace-context propagation, the one latency histogram (Hist, on the one
// bound table LatencyBounds) and the always-on per-stage registry built
// from it, and an append-style Prometheus text encoder. Everything is stdlib-only
// and allocation-disciplined — the tracing fast path (an untraced
// request) costs a context probe and a few clock reads, and a traced
// request reuses sync.Pool-backed records, so the server's
// zero-allocation floor survives with tracing enabled.
//
// The package deliberately knows nothing about HTTP handlers, job
// queues, or stores: those layers feed it through narrow hooks (a
// func(stage, duration) here, a context value there), in the same
// spirit the paper decomposes a computation into stages whose balance
// is measured separately — aggregate latency says a request was slow,
// the stage profile says where.
package obs

import (
	"strconv"
	"time"
)

// Stage names one pipeline stage of a request's life. The sync path is
// decode → (cache_lookup) → compute → encode; the async job path is
// admit → wal_append → queued → sched_pick → run → store_put → publish.
type Stage uint8

const (
	StageDecode Stage = iota
	StageCacheLookup
	StageCompute
	StageEncode
	StageAdmit
	StageWALAppend
	StageQueued
	StageSchedPick
	StageRun
	StageStorePut
	StagePublish
	numStages
)

// NumStages is how many stages exist; Stage values are 0..NumStages-1.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"decode", "cache_lookup", "compute", "encode",
	"admit", "wal_append", "queued", "sched_pick", "run",
	"store_put", "publish",
}

// String returns the stage's wire name (the Server-Timing metric name
// and the Prometheus stage label).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// StageByName resolves a wire name back to its Stage — the bridge for
// hooks that deliver stage names as strings to stay import-light.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// StageSet is the always-on per-stage latency registry: one Hist per
// Stage, on the same LatencyBounds as the route histograms so stage costs
// and route latencies read on the same scale. The zero value is ready;
// Observe is a handful of atomic adds.
type StageSet [NumStages]Hist

// Observe records one stage duration. Nil-safe so callers need no guard.
func (s *StageSet) Observe(st Stage, d time.Duration) {
	if s == nil || int(st) >= NumStages {
		return
	}
	s[st].Observe(d)
}

// Snapshot copies one stage's histogram.
func (s *StageSet) Snapshot(st Stage) HistSnap {
	return s[st].Snapshot()
}
