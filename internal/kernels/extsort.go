package kernels

import (
	"context"
	"fmt"
	"math/rand"

	"balarch/internal/opcount"
)

// SortSpec describes the §3.5 two-phase external comparison sort: phase 1
// reads N/M subsets of M keys, sorts each in local memory, and writes them
// back as sorted runs; phase 2 merges up to M runs at a time with an M-way
// heap whose root pops cost Θ(log₂M) comparisons per word of I/O.
type SortSpec struct {
	// N is the number of keys to sort.
	N int
	// M is the local memory size in words (= keys).
	M int
}

// Validate checks the spec's invariants.
func (s SortSpec) Validate() error {
	if s.N < 0 {
		return fmt.Errorf("kernels: sort N=%d must be ≥ 0", s.N)
	}
	if s.M < 2 {
		return fmt.Errorf("kernels: sort M=%d must be ≥ 2", s.M)
	}
	return nil
}

// Memory returns the local memory footprint in words.
func (s SortSpec) Memory() int { return s.M }

// MergePasses returns the number of phase-2 merge passes: ⌈log_M(⌈N/M⌉)⌉.
func (s SortSpec) MergePasses() int {
	runs := (s.N + s.M - 1) / s.M
	passes := 0
	for runs > 1 {
		runs = (runs + s.M - 1) / s.M
		passes++
	}
	return passes
}

// ExternalSort sorts input with the two-phase scheme, counting every key
// comparison as one operation and every key moved in or out of the PE as one
// I/O word. The input slice is not modified.
func ExternalSort(spec SortSpec, input []int64, c *opcount.Counter) ([]int64, error) {
	return externalSortInternal(spec, input, c, c)
}

// externalSortInternal implements ExternalSort with the two phases counted
// apart: sortCounter accounts phase 1 (run formation), mergeCounter phase 2
// (the M-way merges). The two may be the same counter.
func externalSortInternal(spec SortSpec, input []int64, sortCounter, mergeCounter *opcount.Counter) ([]int64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(input) != spec.N {
		return nil, fmt.Errorf("kernels: input length %d does not match spec N=%d", len(input), spec.N)
	}
	if spec.N == 0 {
		return nil, nil
	}
	keys := make([]int64, spec.N)
	copy(keys, input)
	return externalSortKeys(spec, keys, sortCounter, mergeCounter), nil
}

// externalSortKeys sorts keys, which must hold spec.N ≥ 1 keys of a valid
// spec and which the sort may overwrite, and returns the sorted keys.
//
// The sort works in two buffers of N keys. Phase 1 sorts each run of M keys
// in place in keys; each merge pass then merges groups of M runs from one
// buffer into the other and swaps them. Every run but the last of a pass is
// full, so a pass's runs are found from their width alone.
func externalSortKeys(spec SortSpec, keys []int64, sortCounter, mergeCounter *opcount.Counter) []int64 {
	n, m := spec.N, spec.M

	// Phase 1: produce sorted runs of up to M keys. Every key is read in
	// and written back out once.
	ops := 0
	for lo := 0; lo < n; lo += m {
		ops += heapSortKeys(keys[lo:min(lo+m, n)])
	}
	sortCounter.Read(n)
	sortCounter.Ops(ops)
	sortCounter.Write(n)
	if n <= m {
		return keys
	}

	// Phase 2: merge up to M runs at a time until one remains. Each pass
	// reads and writes every key once.
	src, dst := keys, make([]int64, n)
	heap := make([]mergeEntry, 0, m)
	heads := make([]int, m)
	ends := make([]int, m)
	ops, moved := 0, 0
	for width := m; width < n; {
		group := n // keys per merge: M runs of width keys, at most N
		if width <= n/m {
			group = width * m
		}
		for lo := 0; lo < n; lo += group {
			ops += mergeRuns(src, dst, lo, min(lo+group, n), width, heap, heads, ends)
		}
		moved += n
		src, dst = dst, src
		width = group
	}
	mergeCounter.Read(moved)
	mergeCounter.Ops(ops)
	mergeCounter.Write(moved)
	return src
}

// HeapSortKeys sorts keys in place with the classic Williams/Floyd heapsort
// (a top-down sift, two comparisons per level), counting comparisons.
// Exported so tests and benchmarks can exercise the in-memory phase alone.
func HeapSortKeys(keys []int64, c *opcount.Counter) {
	c.Ops(heapSortKeys(keys))
}

// heapSortKeys sorts keys in place and returns the comparisons it made.
func heapSortKeys(keys []int64) int {
	ops := 0
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		ops += siftDownKeys(keys, i, keys[i])
	}
	for end := n - 1; end > 0; end-- {
		v := keys[end]
		keys[end] = keys[0]
		ops += siftDownKeys(keys[:end], 0, v)
	}
	return ops
}

// siftDownKeys sifts v down the max-heap keys from the hole at root and
// returns the comparisons it made: one to pick the larger child (ties pick
// the left) and one to test v against it, per level. Children move up into
// the hole and v is stored once, where it comes to rest.
func siftDownKeys(keys []int64, root int, v int64) int {
	ops := 0
	for {
		child := 2*root + 1
		if child >= len(keys) {
			break
		}
		big := keys[child]
		if child+1 < len(keys) {
			ops++
			right := keys[child+1]
			child += b2i(right > big)
			big = max(big, right)
		}
		ops++
		if v >= big {
			break
		}
		keys[root] = big
		root = child
	}
	keys[root] = v
	return ops
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag set,
// so a child pick costs no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mergeEntry is one heap element in the M-way merge: the current head key of
// a run and which run it came from.
type mergeEntry struct {
	key int64
	run int
}

// mergeRuns merges the sorted runs of width keys that tile src[lo:hi] into
// dst[lo:hi] with a binary min-heap of one entry per run (the paper's "heap
// of M elements which are the first elements of the current M sorted
// lists"), and returns the comparisons it made. heap, heads and ends are
// scratch with room for one entry per run.
func mergeRuns(src, dst []int64, lo, hi, width int, heap []mergeEntry, heads, ends []int) int {
	heap = heap[:0]
	for r, start := 0, lo; start < hi; r, start = r+1, start+width {
		heap = append(heap, mergeEntry{key: src[start], run: r})
		heads[r] = start + 1
		ends[r] = min(start+width, hi)
	}
	ops := 0
	for i := len(heap)/2 - 1; i >= 0; i-- {
		ops += siftDownMerge(heap, i, heap[i])
	}

	for out := lo; ; out++ {
		top := heap[0]
		dst[out] = top.key
		r := top.run
		var next mergeEntry
		if h := heads[r]; h < ends[r] {
			next = mergeEntry{key: src[h], run: r}
			heads[r] = h + 1
		} else {
			last := len(heap) - 1
			if last == 0 {
				return ops
			}
			next = heap[last]
			heap = heap[:last]
		}
		ops += siftDownMerge(heap, 0, next)
	}
}

// siftDownMerge sifts e down the min-heap from the hole at root and returns
// the comparisons it made, as siftDownKeys does with the order reversed.
func siftDownMerge(heap []mergeEntry, root int, e mergeEntry) int {
	ops := 0
	for {
		child := 2*root + 1
		if child >= len(heap) {
			break
		}
		if child+1 < len(heap) {
			ops++
			child += b2i(heap[child+1].key < heap[child].key)
		}
		ops++
		if e.key <= heap[child].key {
			break
		}
		heap[root] = heap[child]
		root = child
	}
	heap[root] = e
	return ops
}

// SortRatioSweep measures the external-sort ratio across memory sizes for
// the E6 experiment. Each point sorts N = M² keys so phase 2 is one genuine
// M-way merge, keeping both phases in the paper's regime. The seed fixes the
// random input so the sweep is reproducible; each point regenerates its own
// input from the seed, so points are independent and run in parallel via
// Sweep.
func SortRatioSweep(ctx context.Context, ms []int, seed int64) ([]RatioPoint, error) {
	return Sweep(ctx, ms, func(_ context.Context, m int) (RatioPoint, error) {
		spec := SortSpec{N: m * m, M: m}
		if err := spec.Validate(); err != nil {
			return RatioPoint{}, err
		}
		// The keys are generated straight into the sort's first buffer:
		// ExternalSort would copy them to leave its input untouched.
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, spec.N)
		for i := range keys {
			keys[i] = rng.Int63()
		}
		var c opcount.Counter
		externalSortKeys(spec, keys, &c, &c)
		return RatioPoint{Memory: spec.Memory(), Totals: c.Snapshot()}, nil
	})
}
