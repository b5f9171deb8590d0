package obs

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestHistogramQuantile pins the estimator every histogram in the system
// shares (route latencies, stages, the load generator, the rollup).
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	counts := []int64{90, 9, 0}
	if got := quantile(0.50, bounds, counts, 0, 0.0009); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := quantile(0.99, bounds, counts, 0, 0.009); got != 0.01 {
		t.Errorf("p99 = %v, want 0.01", got)
	}
	// Overflow region reports the exact max.
	if got := quantile(0.99, bounds, []int64{1, 0, 0}, 99, 7.5); got != 7.5 {
		t.Errorf("overflow quantile = %v, want 7.5", got)
	}
	// Empty histogram reports zero.
	if got := quantile(0.5, bounds, []int64{0, 0, 0}, 0, 0); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileNearestRank pins the ceiling-rank semantics over
// small counts, where a truncated rank visibly lies: the q-th quantile of
// n observations is the ⌈q·n⌉-th order statistic, so the p95 of 10
// one-per-bucket samples is the 10th — not the 9th.
func TestHistogramQuantileNearestRank(t *testing.T) {
	// Ten observations, one per bucket: the order statistics ARE the
	// bounds, so every golden is exact.
	bounds := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ones := []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.95, 10}, // ⌈0.95·10⌉ = 10th; truncation said 9th
		{0.90, 9},  // ⌈9⌉ = 9th: exact product stays exact
		{0.50, 5},  // ⌈5⌉ = 5th
		{0.45, 5},  // ⌈4.5⌉ = 5th; truncation said 4th
		{0.10, 1},
		{0.05, 1}, // ⌈0.5⌉ = 1st
		{0, 1},    // clamped up to the 1st
		{1, 10},
	}
	for _, c := range cases {
		if got := quantile(c.q, bounds, ones, 0, 10); got != c.want {
			t.Errorf("q=%v of 10 one-per-bucket samples = %v, want %v", c.q, got, c.want)
		}
	}

	// Three observations: p95 must be the 3rd (⌈2.85⌉), not the 2nd.
	three := []int64{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}
	if got := quantile(0.95, bounds, three, 0, 3); got != 3 {
		t.Errorf("p95 of 3 samples = %v, want the 3rd order statistic 3", got)
	}
	// A single observation is every quantile.
	one := []int64{0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile(q, bounds, one, 0, 2); got != 2 {
			t.Errorf("q=%v of 1 sample = %v, want 2", q, got)
		}
	}
	// q=1 with overflow lands in the overflow region: the exact max.
	if got := quantile(1, bounds, three, 1, 42); got != 42 {
		t.Errorf("q=1 with overflow = %v, want max 42", got)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 90 fast observations, 10 slow: p50 in the fast bucket, p99 slow.
	for i := 0; i < 90; i++ {
		h.Observe(80 * time.Microsecond) // ≤ 0.0001 bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(200 * time.Millisecond) // ≤ 0.25 bucket
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 0.0001 {
		t.Errorf("p50 = %v, want 0.0001", got)
	}
	if got := s.Quantile(0.99); got != 0.25 {
		t.Errorf("p99 = %v, want 0.25", got)
	}
	if s.Max.Seconds() != 0.2 || s.Count != 100 {
		t.Errorf("max %v n %d", s.Max, s.Count)
	}
	// Overflow: beyond the last bucket the quantile reports the exact max.
	var h2 Hist
	h2.Observe(99 * time.Second)
	if s2 := h2.Snapshot(); s2.Quantile(0.99) != 99 {
		t.Errorf("overflow quantile = %v, want the exact max 99", s2.Quantile(0.99))
	}
}

// refBuckets are the route histogram's bounds as the float-seconds
// implementation this package replaced held them.
var refBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// refHist is the replaced float-seconds route histogram: it buckets
// d.Seconds() against refBuckets and keeps the sum and max in seconds.
type refHist struct {
	counts    []int64
	over, n   int64
	sum, maxS float64
}

func (r *refHist) observe(d time.Duration) {
	sec := d.Seconds()
	r.n++
	r.sum += sec
	if sec > r.maxS {
		r.maxS = sec
	}
	for i, ub := range refBuckets {
		if sec <= ub {
			r.counts[i]++
			return
		}
	}
	r.over++
}

// refHistogramQuantile is the replaced estimator, kept verbatim as the
// reference HistSnap.Quantile must reproduce.
func refHistogramQuantile(q float64, bounds []float64, counts []int64, over int64, max float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	total += over
	if total == 0 {
		return max
	}
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

// spread maps a random word to a duration that exercises every bucket:
// a log-uniform magnitude up to ~34 s, with one draw in eight landing
// exactly on a bound or one nanosecond past it.
func spread(x uint64) time.Duration {
	if x%8 == 0 {
		return time.Duration(boundNanos[(x>>3)%NumBuckets] + int64((x>>7)%2))
	}
	return time.Duration((x >> 6) % (1 << (x % 36)))
}

func snapOf(ds []time.Duration) HistSnap {
	var h Hist
	for _, d := range ds {
		h.Observe(d)
	}
	return h.Snapshot()
}

// TestHistSnapAddProperty: merging two snapshots equals snapshotting the
// concatenated observations, and the estimate off the merged value equals
// the replaced float-seconds histogram and estimator on the same input —
// so the integer-nanosecond buckets place every observation where the
// float-seconds compare did.
func TestHistSnapAddProperty(t *testing.T) {
	prop := func(ra, rb []uint64) bool {
		var a, b []time.Duration
		for _, x := range ra {
			a = append(a, spread(x))
		}
		for _, x := range rb {
			b = append(b, spread(x))
		}
		all := append(append([]time.Duration(nil), a...), b...)
		got := snapOf(a)
		got.Add(snapOf(b))
		want := snapOf(all)
		if got.Counts != want.Counts || got.Over != want.Over || got.Count != want.Count ||
			got.Sum != want.Sum || got.Max != want.Max {
			t.Logf("merged %+v != whole %+v", got, want)
			return false
		}
		ref := refHist{counts: make([]int64, len(refBuckets))}
		for _, d := range all {
			ref.observe(d)
		}
		for i, n := range ref.counts {
			if got.Counts[i] != n {
				t.Logf("bucket %d: %d, float-seconds reference %d", i, got.Counts[i], n)
				return false
			}
		}
		if got.Over != ref.over || got.Max.Seconds() != ref.maxS {
			t.Logf("over/max %d/%v, reference %d/%v", got.Over, got.Max.Seconds(), ref.over, ref.maxS)
			return false
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			if g, w := got.Quantile(q), refHistogramQuantile(q, refBuckets, ref.counts, ref.over, ref.maxS); g != w {
				t.Logf("q=%v: %v, reference %v", q, g, w)
				return false
			}
		}
		if len(all) > 0 && math.Abs(got.Mean()-ref.sum/float64(ref.n)) > 1e-12*ref.sum/float64(ref.n) {
			t.Logf("mean %v, reference %v", got.Mean(), ref.sum/float64(ref.n))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyBoundsWholeNanoseconds: every bound converts to an exact
// nanosecond count, the premise of comparing in integer nanoseconds.
func TestLatencyBoundsWholeNanoseconds(t *testing.T) {
	for i, b := range LatencyBounds {
		if time.Duration(boundNanos[i]).Seconds() != b {
			t.Errorf("bound %d: %v s is not %d ns", i, b, boundNanos[i])
		}
		if i > 0 && b <= LatencyBounds[i-1] {
			t.Errorf("bounds not ascending at %d", i)
		}
	}
}

// TestHistSnapMean: the mean is the sum over the count, 0 when empty.
func TestHistSnapMean(t *testing.T) {
	var empty HistSnap
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot: mean %v p50 %v", empty.Mean(), empty.Quantile(0.5))
	}
	s := snapOf([]time.Duration{time.Millisecond, 3 * time.Millisecond, -time.Second})
	if s.Count != 3 || s.Sum != 4*time.Millisecond || s.Counts[0] != 1 {
		t.Fatalf("negative duration must count as zero: %+v", s)
	}
	if got, want := s.Mean(), 0.004/3; math.Abs(got-want) > 1e-15 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestHistConcurrentObserve: observations from many goroutines at once all
// land — the lock-free adds and the max CAS lose nothing.
func TestHistConcurrentObserve(t *testing.T) {
	const workers, each = 8, 1000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	const n = workers * each
	if s.Count != n || s.Max != (n-1)*time.Microsecond || s.Sum != n*(n-1)/2*time.Microsecond {
		t.Fatalf("count %d max %v sum %v, want %d, %v, %v",
			s.Count, s.Max, s.Sum, n, (n-1)*time.Microsecond, n*(n-1)/2*time.Microsecond)
	}
	if s.Counts[0] != 101 { // 0..100 µs
		t.Fatalf("first bucket %d, want 101", s.Counts[0])
	}
}
