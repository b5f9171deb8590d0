package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"balarch/internal/opcount"
)

// The oracle below is the external sort as first written: one slice per run,
// a fresh output slice per merge, a swap per heap level and one Counter call
// per comparison. Its bodies are kept verbatim (only the names carry an
// oracle prefix) so that the optimized sort must reproduce its comparisons,
// order and counts exactly.

func oracleExternalSortInternal(spec SortSpec, input []int64, sortCounter, mergeCounter *opcount.Counter) ([]int64, error) {
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
		oracleHeapSortKeys(run, sortCounter)
		sortCounter.Write(len(run))
		runs = append(runs, run)
	}

	// Phase 2: merge up to M runs at a time until one remains.
	for len(runs) > 1 {
		var next [][]int64
		for lo := 0; lo < len(runs); lo += spec.M {
			hi := min(lo+spec.M, len(runs))
			merged := oracleMergeRuns(runs[lo:hi], mergeCounter)
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

func oracleHeapSortKeys(keys []int64, c *opcount.Counter) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		oracleSiftDownKeys(keys, i, n, c)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		oracleSiftDownKeys(keys, 0, end, c)
	}
}

func oracleSiftDownKeys(keys []int64, root, end int, c *opcount.Counter) {
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

type oracleMergeEntry struct {
	key int64
	run int
}

func oracleMergeRuns(runs [][]int64, c *opcount.Counter) []int64 {
	total := 0
	heads := make([]int, len(runs))
	heap := make([]oracleMergeEntry, 0, len(runs))
	for r, run := range runs {
		total += len(run)
		if len(run) > 0 {
			c.Read(1)
			heap = append(heap, oracleMergeEntry{key: run[0], run: r})
			heads[r] = 1
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		oracleSiftDownMerge(heap, i, len(heap), c)
	}

	out := make([]int64, 0, total)
	for len(heap) > 0 {
		top := heap[0]
		out = append(out, top.key)
		c.Write(1)
		r := top.run
		if heads[r] < len(runs[r]) {
			c.Read(1)
			heap[0] = oracleMergeEntry{key: runs[r][heads[r]], run: r}
			heads[r]++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			oracleSiftDownMerge(heap, 0, len(heap), c)
		}
	}
	return out
}

func oracleSiftDownMerge(heap []oracleMergeEntry, root, end int, c *opcount.Counter) {
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

// oracleCase is one seeded input for the oracle comparison.
type oracleCase struct {
	name string
	spec SortSpec
	keys func(rng *rand.Rand, n int) []int64
}

func uniformKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	return keys
}

func fewDistinctKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(5)
	}
	return keys
}

func ascendingKeys(_ *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return keys
}

func descendingKeys(_ *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	return keys
}

// extremeKeys mixes negative keys with both ends of the int64 range, where a
// comparison by the sign of a difference would overflow.
func extremeKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		switch rng.Intn(5) {
		case 0:
			keys[i] = math.MinInt64
		case 1:
			keys[i] = math.MaxInt64
		case 2:
			keys[i] = -rng.Int63()
		default:
			keys[i] = rng.Int63() - rng.Int63()
		}
	}
	return keys
}

func oracleCases() []oracleCase {
	return []oracleCase{
		{"N=0", SortSpec{N: 0, M: 4}, uniformKeys},
		{"N=1", SortSpec{N: 1, M: 4}, uniformKeys},
		{"N<M", SortSpec{N: 5, M: 8}, uniformKeys},
		{"N=M", SortSpec{N: 16, M: 16}, uniformKeys},
		{"ragged", SortSpec{N: 100, M: 8}, uniformKeys},
		{"N=M²", SortSpec{N: 1024, M: 32}, uniformKeys},
		{"N>M² M=4", SortSpec{N: 4097, M: 4}, uniformKeys},
		{"N>M² M=7", SortSpec{N: 1000, M: 7}, uniformKeys},
		{"M=2", SortSpec{N: 333, M: 2}, uniformKeys},
		{"M=2 N=M", SortSpec{N: 2, M: 2}, uniformKeys},
		{"few distinct", SortSpec{N: 2000, M: 16}, fewDistinctKeys},
		{"few distinct M=3", SortSpec{N: 500, M: 3}, fewDistinctKeys},
		{"ascending", SortSpec{N: 1500, M: 16}, ascendingKeys},
		{"descending", SortSpec{N: 1500, M: 16}, descendingKeys},
		{"extremes", SortSpec{N: 3000, M: 12}, extremeKeys},
		{"extremes N>M²", SortSpec{N: 600, M: 5}, extremeKeys},
		{"N=M² M=512", SortSpec{N: 512 * 512, M: 512}, uniformKeys},
	}
}

// TestExternalSortMatchesOracle holds the optimized sort to the original one:
// the same sorted output and, phase by phase, the same Totals.
func TestExternalSortMatchesOracle(t *testing.T) {
	for i, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.keys(rand.New(rand.NewSource(int64(100+i))), tc.spec.N)
			orig := append([]int64(nil), input...)

			var wantSort, wantMerge opcount.Counter
			want, err := oracleExternalSortInternal(tc.spec, input, &wantSort, &wantMerge)
			if err != nil {
				t.Fatal(err)
			}
			var gotSort, gotMerge opcount.Counter
			got, err := externalSortInternal(tc.spec, input, &gotSort, &gotMerge)
			if err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) || (got == nil) != (want == nil) {
				t.Fatalf("len(out) = %d (nil %v), oracle %d (nil %v)", len(got), got == nil, len(want), want == nil)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("out[%d] = %d, oracle %d", k, got[k], want[k])
				}
			}
			if g, w := gotSort.Snapshot(), wantSort.Snapshot(); g != w {
				t.Errorf("phase 1 totals %+v, oracle %+v", g, w)
			}
			if g, w := gotMerge.Snapshot(), wantMerge.Snapshot(); g != w {
				t.Errorf("phase 2 totals %+v, oracle %+v", g, w)
			}
			for k := range orig {
				if input[k] != orig[k] {
					t.Fatalf("input[%d] modified", k)
				}
			}
		})
	}
}

// TestHeapSortKeysMatchesOracle holds the exported in-memory phase to the
// original heapsort, key for key and comparison for comparison.
func TestHeapSortKeysMatchesOracle(t *testing.T) {
	for i, keys := range []func(*rand.Rand, int) []int64{uniformKeys, fewDistinctKeys, ascendingKeys, descendingKeys, extremeKeys} {
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			want := keys(rand.New(rand.NewSource(int64(i*1000+n))), n)
			got := append([]int64(nil), want...)
			var wc, gc opcount.Counter
			oracleHeapSortKeys(want, &wc)
			HeapSortKeys(got, &gc)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("keys %d n=%d: got[%d] = %d, oracle %d", i, n, k, got[k], want[k])
				}
			}
			if gc.Snapshot() != wc.Snapshot() {
				t.Errorf("keys %d n=%d: totals %+v, oracle %+v", i, n, gc.Snapshot(), wc.Snapshot())
			}
		}
	}
}
