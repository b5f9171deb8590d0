package experiments

import (
	"context"
	"fmt"

	"balarch/internal/pebble"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// RunE11Pebble supports the paper's "best possible" claims (§3.1, §3.4,
// §3.5 cite Hong & Kung 1981) on the red-blue pebble game itself: exhaustive
// minimum-I/O search on tiny DAGs brackets the blocked and greedy
// strategies, and the closed-form lower bounds hold against every schedule.
func RunE11Pebble(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "E11", Title: "pebble-game optimality checks", PaperLocus: "§3.1/§3.4/§3.5 (Hong–Kung 1981)"}

	// Part 1: exact optima on tiny DAGs vs strategies.
	type tiny struct {
		name string
		dag  *pebble.DAG
		s    int
	}
	var cases []tiny
	chain, err := pebble.ChainDAG(8)
	if err != nil {
		return nil, err
	}
	cases = append(cases, tiny{"chain(8)", chain, 2})
	diamond, err := pebble.DiamondDAG(2)
	if err != nil {
		return nil, err
	}
	cases = append(cases, tiny{"diamond(2)", diamond, 3})
	tree, err := pebble.BinaryTreeDAG(4)
	if err != nil {
		return nil, err
	}
	cases = append(cases, tiny{"tree(4)", tree, 3})
	fft4, err := pebble.FFTDAG(4)
	if err != nil {
		return nil, err
	}
	cases = append(cases, tiny{"fft(4)", fft4, 4})

	tb := textplot.NewTable("DAG", "red pebbles S", "optimal I/O", "greedy I/O", "trivial bound")
	allBracketed := true
	for _, tc := range cases {
		opt, err := pebble.OptimalIO(tc.dag, tc.s)
		if err != nil {
			return nil, fmt.Errorf("optimal %s: %w", tc.name, err)
		}
		sched, err := pebble.GreedySchedule(tc.dag, tc.s)
		if err != nil {
			return nil, err
		}
		res, err := pebble.Execute(tc.dag, tc.s, sched)
		if err != nil {
			return nil, err
		}
		trivial := pebble.TrivialLowerBound(tc.dag)
		if opt < trivial || res.IO() < opt {
			allBracketed = false
		}
		tb.AddRow(tc.name, tc.s, opt, res.IO(), trivial)
	}
	r.Tables = append(r.Tables, tb.String())
	r.AddClaim(
		"exhaustive optima bracket every strategy: trivial ≤ optimal ≤ greedy",
		"bracketing holds on all tiny DAGs",
		fmt.Sprintf("bracketing holds: %v", allBracketed),
		allBracketed,
	)

	// Part 2: blocked FFT schedules vs the Hong-Kung bound at scale.
	ftb := textplot.NewTable("N", "block M", "pebbles S", "blocked I/O", "lower bound", "achieved/bound")
	worstFactor := 0.0
	boundsHold := true
	// The cases come grouped by N, so each FFTDAG is built once.
	var dag *pebble.DAG
	dagN := 0
	for _, tc := range []struct{ n, m int }{
		{256, 4}, {256, 16}, {1024, 16}, {4096, 16}, {4096, 64},
	} {
		sched, s, err := pebble.BlockedFFTSchedule(tc.n, tc.m)
		if err != nil {
			return nil, err
		}
		if tc.n != dagN {
			if dag, err = pebble.FFTDAG(tc.n); err != nil {
				return nil, err
			}
			dagN = tc.n
		}
		res, err := pebble.Execute(dag, s, sched)
		if err != nil {
			return nil, err
		}
		bound := pebble.FFTLowerBound(tc.n, s)
		factor := float64(res.IO()) / bound
		if factor < 1 {
			boundsHold = false
		}
		if factor > worstFactor {
			worstFactor = factor
		}
		ftb.AddRow(tc.n, tc.m, s, res.IO(), bound, factor)
	}
	r.Tables = append(r.Tables, ftb.String())
	r.AddClaim(
		"the Fig. 2 blocked FFT achieves I/O within a constant factor of the Hong-Kung Ω(N·logN/logS) bound",
		"achieved/bound ≥ 1 and bounded by a small constant",
		fmt.Sprintf("bounds hold: %v; worst factor %.3g", boundsHold, worstFactor),
		boundsHold && worstFactor < 16,
	)

	// Part 3: matmul greedy vs the Irony-Toledo-Tiskin bound.
	mtb := textplot.NewTable("n", "pebbles S", "greedy I/O", "lower bound", "achieved/bound")
	mmHold := true
	for _, tc := range []struct{ n, s int }{{4, 8}, {4, 16}, {6, 16}, {6, 48}} {
		dag, err := pebble.MatMulDAG(tc.n)
		if err != nil {
			return nil, err
		}
		sched, err := pebble.GreedySchedule(dag, tc.s)
		if err != nil {
			return nil, err
		}
		res, err := pebble.Execute(dag, tc.s, sched)
		if err != nil {
			return nil, err
		}
		bound := pebble.MatMulLowerBound(tc.n, tc.s)
		if float64(res.IO()) < bound {
			mmHold = false
		}
		mtb.AddRow(tc.n, tc.s, res.IO(), bound, float64(res.IO())/bound)
	}
	r.Tables = append(r.Tables, mtb.String())
	r.AddClaim(
		"greedy matmul pebblings never beat the matmul I/O lower bound",
		"achieved ≥ bound on all instances",
		fmt.Sprintf("bounds hold: %v", mmHold),
		mmHold,
	)
	return r, nil
}
