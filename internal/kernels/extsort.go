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

	// Phase 1: produce sorted runs of up to M keys.
	var runs [][]int64
	for lo := 0; lo < spec.N; lo += spec.M {
		hi := min(lo+spec.M, spec.N)
		run := make([]int64, hi-lo)
		copy(run, input[lo:hi])
		sortCounter.Read(len(run))
		HeapSortKeys(run, sortCounter)
		sortCounter.Write(len(run))
		runs = append(runs, run)
	}

	// Phase 2: merge up to M runs at a time until one remains.
	for len(runs) > 1 {
		var next [][]int64
		for lo := 0; lo < len(runs); lo += spec.M {
			hi := min(lo+spec.M, len(runs))
			merged := mergeRuns(runs[lo:hi], mergeCounter)
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

// HeapSortKeys sorts keys in place with bottom-up heapsort, counting
// comparisons. Exported so tests and benchmarks can exercise the in-memory
// phase alone.
func HeapSortKeys(keys []int64, c *opcount.Counter) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownKeys(keys, i, n, c)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		siftDownKeys(keys, 0, end, c)
	}
}

func siftDownKeys(keys []int64, root, end int, c *opcount.Counter) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end {
			c.Ops(1)
			if keys[child+1] > keys[child] {
				child++
			}
		}
		c.Ops(1)
		if keys[root] >= keys[child] {
			return
		}
		keys[root], keys[child] = keys[child], keys[root]
		root = child
	}
}

// mergeEntry is one heap element in the M-way merge: the current head key of
// a run and which run it came from.
type mergeEntry struct {
	key int64
	run int
}

// mergeRuns merges the given sorted runs with a binary min-heap of one entry
// per run (the paper's "heap of M elements which are the first elements of
// the current M sorted lists"), counting comparisons and word traffic.
func mergeRuns(runs [][]int64, c *opcount.Counter) []int64 {
	total := 0
	heads := make([]int, len(runs))
	heap := make([]mergeEntry, 0, len(runs))
	for r, run := range runs {
		total += len(run)
		if len(run) > 0 {
			c.Read(1)
			heap = append(heap, mergeEntry{key: run[0], run: r})
			heads[r] = 1
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDownMerge(heap, i, len(heap), c)
	}

	out := make([]int64, 0, total)
	for len(heap) > 0 {
		top := heap[0]
		out = append(out, top.key)
		c.Write(1)
		r := top.run
		if heads[r] < len(runs[r]) {
			c.Read(1)
			heap[0] = mergeEntry{key: runs[r][heads[r]], run: r}
			heads[r]++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			siftDownMerge(heap, 0, len(heap), c)
		}
	}
	return out
}

func siftDownMerge(heap []mergeEntry, root, end int, c *opcount.Counter) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end {
			c.Ops(1)
			if heap[child+1].key < heap[child].key {
				child++
			}
		}
		c.Ops(1)
		if heap[root].key <= heap[child].key {
			return
		}
		heap[root], heap[child] = heap[child], heap[root]
		root = child
	}
}

// SortRatioSweep measures the external-sort ratio across memory sizes for
// the E6 experiment. Each point sorts N = runsPerMemory·M² keys so phase 2
// is a genuine M-way merge, keeping both phases in the paper's regime. The
// seed fixes the random input so the sweep is reproducible; each point
// regenerates its own input from the seed, so points are independent and
// run in parallel via Sweep.
func SortRatioSweep(ctx context.Context, ms []int, seed int64) ([]RatioPoint, error) {
	return Sweep(ctx, ms, func(_ context.Context, m int) (RatioPoint, error) {
		spec := SortSpec{N: m * m, M: m}
		rng := rand.New(rand.NewSource(seed))
		input := make([]int64, spec.N)
		for i := range input {
			input[i] = rng.Int63()
		}
		var c opcount.Counter
		if _, err := ExternalSort(spec, input, &c); err != nil {
			return RatioPoint{}, err
		}
		return RatioPoint{Memory: spec.Memory(), Totals: c.Snapshot()}, nil
	})
}
