package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// NumBuckets is how many finite buckets every latency histogram has.
const NumBuckets = 16

// LatencyBounds are the upper bounds, in seconds, of every latency
// histogram in the system — route latencies, stage costs, the load
// generator's client-side samples and the cluster rollup — chosen to
// straddle the API's two regimes: microsecond analytic queries and
// millisecond-to-second measured sweeps and experiment runs. One table
// means a quantile from any of them is an estimate on the same grid.
var LatencyBounds = [NumBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// boundNanos is LatencyBounds in nanoseconds, the unit Observe compares
// in. Every bound is a whole number of nanoseconds, so comparing integer
// durations places each observation where a float-seconds compare would.
var boundNanos = func() (ns [NumBuckets]int64) {
	for i, b := range LatencyBounds {
		ns[i] = int64(math.Round(b * float64(time.Second)))
	}
	return ns
}()

// Hist is a lock-free latency histogram on LatencyBounds. Observe is a
// bucket scan and a handful of atomic adds, so it is safe on any hot
// path; the zero value is ready to use.
type Hist struct {
	counts [NumBuckets]atomic.Int64
	over   atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// Observe records one duration; a negative one counts as zero.
func (h *Hist) Observe(d time.Duration) {
	n := max(int64(d), 0)
	placed := false
	for i, bound := range boundNanos {
		if n <= bound {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.over.Add(1)
	}
	h.sum.Add(n)
	for {
		old := h.max.Load()
		if n <= old || h.max.CompareAndSwap(old, n) {
			break
		}
	}
}

// Snapshot copies the histogram. Count is the buckets' total, so the two
// always agree; the loads are not mutually atomic, so a concurrent
// Observe can show in the buckets before its sum — the usual (and
// harmless) scrape-time skew.
func (h *Hist) Snapshot() HistSnap {
	s := HistSnap{
		Over: h.over.Load(),
		Sum:  time.Duration(h.sum.Load()),
		Max:  time.Duration(h.max.Load()),
	}
	s.Count = s.Over
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistSnap is a histogram's value: Counts[i] observations at or under
// LatencyBounds[i], Over beyond the last bound. Fixed-size arrays make it
// a plain value — copying, merging and rendering one allocates nothing.
type HistSnap struct {
	Counts [NumBuckets]int64
	Over   int64
	Count  int64
	Sum    time.Duration
	Max    time.Duration
}

// Add merges o into h: counts and sums add, the maximum is the larger.
func (h *HistSnap) Add(o HistSnap) {
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
	h.Over += o.Over
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
}

// Mean is the average observation in seconds, 0 when empty.
func (h *HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum.Seconds() / float64(h.Count)
}

// Quantile estimates quantile q (in [0, 1]) in seconds: the upper bound of
// the bucket holding the q-th observation, or the exact maximum when that
// observation lies beyond the last bound.
func (h *HistSnap) Quantile(q float64) float64 {
	return quantile(q, LatencyBounds[:], h.Counts[:], h.Over, h.Max.Seconds())
}

// quantile estimates quantile q from counts bucketed on bounds: the upper
// bound of the bucket holding the q-th observation. over counts
// observations beyond the last bucket and max is the exact largest
// observation, returned when the quantile lands in the overflow region (or
// when there are no observations at all, where max is naturally 0).
func quantile(q float64, bounds []float64, counts []int64, over int64, max float64) float64 {
	total := over
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return max
	}
	// Nearest-rank with a ceiling: the q-th quantile of n observations
	// is the ⌈q·n⌉-th order statistic (a truncated rank would read the
	// p95 of 10 samples off the 9th and under-report every tail).
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			return bounds[i]
		}
	}
	return max
}
