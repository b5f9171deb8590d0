package experiments

import (
	"context"
	"fmt"
	"math"

	"balarch/internal/kernels"
	"balarch/internal/memsim"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// RunE12Cache replays naive and blocked matmul address traces through LRU
// and OPT caches, the executable form of the paper's §1 motivation: a local
// memory only reduces I/O when the computation is decomposed to exploit it,
// and the blocked schedule's measured traffic matches the §3.1 counter
// model.
func RunE12Cache(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "E12", Title: "cache simulation of naive vs blocked matmul", PaperLocus: "§1 (motivation), §3.1"}
	n, b := 48, 8
	caches := []int{32, 96, 256, 1024, 4096}

	// The naive trace is replayed at every cache size before the blocked
	// one is built, so the two traces are never live at once.
	naive, err := memsim.NaiveMatMulTrace(n)
	if err != nil {
		return nil, err
	}
	naiveLRU := make([]memsim.Result, len(caches))
	for i, cap := range caches {
		if naiveLRU[i], err = memsim.SimulateLRU(naive, cap); err != nil {
			return nil, err
		}
	}
	blocked, err := memsim.BlockedMatMulTrace(n, b)
	if err != nil {
		return nil, err
	}

	tb := textplot.NewTable("cache (words)", "naive LRU misses", "blocked LRU misses", "blocked OPT misses", "naive/blocked")
	var nRows [][]float64
	var atWorkingSet float64
	var lru96, opt96 memsim.Result // the blocked replays at cache = 96
	for i, cap := range caches {
		rn := naiveLRU[i]
		rb, err := memsim.SimulateLRU(blocked, cap)
		if err != nil {
			return nil, err
		}
		ro, err := memsim.SimulateOPT(blocked, cap)
		if err != nil {
			return nil, err
		}
		gain := float64(rn.Misses) / float64(rb.Misses)
		if cap == 96 {
			atWorkingSet, lru96, opt96 = gain, rb, ro
		}
		tb.AddRow(cap, rn.Misses, rb.Misses, ro.Misses, f2(gain))
		nRows = append(nRows, []float64{float64(cap), float64(rn.Misses), float64(rb.Misses), float64(ro.Misses)})
	}
	r.Tables = append(r.Tables, tb.String())
	r.Series = append(r.Series, report.Series{
		Name:    "cache_misses",
		Columns: []string{"cache_words", "naive_lru", "blocked_lru", "blocked_opt"},
		Rows:    nRows,
	})

	r.AddClaim(
		"with a cache of ≈ b²+2b words, the blocked schedule's traffic is far below the naive schedule's",
		"naive/blocked misses ≫ 1 at cache = 96",
		fmt.Sprintf("naive/blocked = %.3g× at cache 96", atWorkingSet),
		atWorkingSet >= 2,
	)

	// The blocked schedule's LRU traffic must match the §3.1 counter
	// model: Cio = 2N³/b + N² reads plus N² writes at block size b.
	modelCio, err := kernels.CountBlockedMatMul(kernels.MatMulSpec{N: n, Block: b})
	if err != nil {
		return nil, err
	}
	want := float64(modelCio.Reads + modelCio.Writes)
	got := float64(lru96.Misses)
	rel := math.Abs(got-want) / want
	r.AddClaim(
		"measured cache traffic of the blocked schedule matches the counter model's Cio",
		fmt.Sprintf("Cio ≈ %.0f words", want),
		fmt.Sprintf("LRU misses = %.0f (%.1f%% off)", got, rel*100),
		rel < 0.5,
	)

	// OPT never loses to LRU; both sit above the compulsory floor.
	floor := float64(blocked.Words())
	r.AddClaim(
		"replacement-policy sanity: compulsory ≤ OPT ≤ LRU",
		"ordering holds",
		fmt.Sprintf("floor %.0f ≤ OPT %d ≤ LRU %d", floor, opt96.Misses, lru96.Misses),
		floor <= float64(opt96.Misses) && opt96.Misses <= lru96.Misses,
	)
	return r, nil
}
