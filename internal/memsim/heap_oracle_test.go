package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestOPTBitmapMatchesHeap: the bitmap replay returns exactly the Results
// of the lazy-heap SimulateOPT it replaced, kept below verbatim, at every
// capacity from 1 to one past the trace's distinct words, on naive and
// blocked matmul traces of several shapes and on seeded random traces.
func TestOPTBitmapMatchesHeap(t *testing.T) {
	check := func(name string, trace Trace) {
		t.Helper()
		for capacity := 1; capacity <= trace.Words()+1; capacity++ {
			got, err := SimulateOPT(trace, capacity)
			if err != nil {
				t.Fatal(err)
			}
			want, err := heapSimulateOPT(trace, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s, capacity %d: %+v, lazy heap %+v", name, capacity, got, want)
			}
		}
	}
	for _, n := range []int{1, 3, 8, 12} {
		naive, err := NaiveMatMulTrace(n)
		if err != nil {
			t.Fatal(err)
		}
		check("naive", naive)
	}
	for _, nb := range [][2]int{{1, 1}, {5, 2}, {8, 3}, {12, 4}, {16, 8}} {
		blocked, err := BlockedMatMulTrace(nb[0], nb[1])
		if err != nil {
			t.Fatal(err)
		}
		check("blocked", blocked)
	}
	rng := rand.New(rand.NewSource(2701))
	for range 40 {
		words := 1 + rng.Intn(150)
		// Lengths from 1 to past 64², so some traces need three
		// bitmap levels.
		refs := make([]Ref, 1+rng.Intn(6000))
		for i := range refs {
			// Squaring skews references toward low addresses.
			u := rng.Float64()
			refs[i] = Ref{Addr: uint64(u*u*float64(words)) * 7919, Write: rng.Intn(4) == 0}
		}
		check("random", Renumber(refs))
	}
}

// TestSimulateOPTAllocsFlat: SimulateOPT allocates the same number of
// times whatever the trace length or the capacity.
func TestSimulateOPTAllocsFlat(t *testing.T) {
	short, err := BlockedMatMulTrace(4, 2) // 192 references
	if err != nil {
		t.Fatal(err)
	}
	long, err := NaiveMatMulTrace(48) // 223,488 references
	if err != nil {
		t.Fatal(err)
	}
	want := -1.0
	for _, tc := range []struct {
		trace    Trace
		capacity int
	}{{short, 1}, {short, 48}, {long, 1}, {long, 96}, {long, 4096}, {long, 1 << 20}} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := SimulateOPT(tc.trace, tc.capacity); err != nil {
				t.Fatal(err)
			}
		})
		if want < 0 {
			want = allocs
		}
		if allocs != want {
			t.Errorf("%d references, capacity %d: %v allocs, want %v", len(tc.trace.refs), tc.capacity, allocs, want)
		}
	}
	if want > 3 {
		t.Errorf("%v allocs per replay, want at most 3", want)
	}
}

// heapSimulateOPT is the SimulateOPT that kept resident words in a lazy
// max-heap on next use, kept verbatim as the reference for
// TestOPTBitmapMatchesHeap.
func heapSimulateOPT(t Trace, capacity int) (Result, error) {
	if err := validateCapacity(capacity); err != nil {
		return Result{}, err
	}
	const never = int(^uint(0) >> 1) // no future use

	// nextUse[i] = next position after i at which word t.refs[i].Addr
	// recurs. The backward pass keeps in cur[w] the earliest reference
	// to w that it has seen.
	nextUse := make([]int, len(t.refs))
	cur := make([]int, t.words)
	for w := range cur {
		cur[w] = never
	}
	for i := len(t.refs) - 1; i >= 0; i-- {
		w := t.refs[i].Addr
		nextUse[i] = cur[w]
		cur[w] = i
	}

	// From here cur[w] is the next use of w while w is resident, and
	// notResident otherwise.
	const notResident = -1
	for w := range cur {
		cur[w] = notResident
	}
	var res Result
	resident := 0
	h := make(optHeap, 0, capacity)
	for i, ref := range t.refs {
		res.Accesses++
		if cur[ref.Addr] == notResident {
			res.Misses++
			if resident == capacity {
				// Evict the resident word whose next use is
				// furthest; skip stale heap entries lazily.
				for {
					e := h.pop()
					if cur[e.addr] == e.nextUse {
						cur[e.addr] = notResident
						res.Evictions++
						break
					}
				}
			} else {
				resident++
			}
		}
		cur[ref.Addr] = nextUse[i]
		h.push(optEntry{nextUse: nextUse[i], addr: ref.Addr})
		if len(h) > 2*capacity+64 {
			h = slices.DeleteFunc(h, func(e optEntry) bool {
				return cur[e.addr] != e.nextUse
			})
			h.heapify()
		}
	}
	return res, nil
}

type optEntry struct {
	nextUse int
	addr    uint64
}

// optHeap is a max-heap on nextUse.
type optHeap []optEntry

func (h *optHeap) push(e optEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].nextUse >= (*h)[i].nextUse {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// heapify restores the heap order of arbitrary entries.
func (h optHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *optHeap) pop() optEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// down sifts the entry at i toward the leaves until both children's next
// uses are no later than its own.
func (h optHeap) down(i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].nextUse > h[child].nextUse {
			child++
		}
		if h[i].nextUse >= h[child].nextUse {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}
