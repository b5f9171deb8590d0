package experiments

import (
	"context"
	"fmt"

	"balarch/internal/array"
	"balarch/internal/model"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// RunE10Warp reproduces §5's case study: the CMU Warp machine — 10 cells,
// each with C = 10 MFLOPS, IO = 20 Mwords/s, M = 64K words. The paper notes
// that Warp's large per-cell I/O bandwidth and local memory "reflect the
// results of this paper": with per-cell intensity C/IO = 0.5 and the 10-cell
// aggregate intensity only 5, every computation-bounded kernel balances
// within a tiny fraction of the provided memory.
func RunE10Warp(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "E10", Title: "CMU Warp case study", PaperLocus: "§5"}
	cell := model.Warp()
	arr := array.LinearArray{P: model.WarpCells, Cell: cell}
	agg := arr.Aggregate()

	tb := textplot.NewTable("computation", "aggregate M for balance", "available M", "state at 64K/cell")
	computeBoundedOK := true
	ioBoundedStarve := true
	for _, comp := range model.Catalog() {
		a, err := model.Analyze(agg, comp, 1e18)
		if err != nil {
			return nil, err
		}
		var need string
		switch {
		case a.Rebalanceable:
			need = fmt.Sprintf("%.4g words", a.BalancedMemory)
		default:
			need = "unreachable"
		}
		if comp.IOBounded {
			// §3.6 kernels: the 10-cell aggregate intensity of 5
			// exceeds their constant ratio of 2, so the array must
			// wait for I/O no matter the memory.
			if a.State != model.IOBound {
				ioBoundedStarve = false
			}
		} else if a.State == model.IOBound {
			computeBoundedOK = false
		}
		tb.AddRow(comp.Name, need, fmt.Sprintf("%.4g", agg.M), a.State.String())
	}
	r.Tables = append(r.Tables, tb.String())

	r.AddClaim(
		"no computation-bounded kernel leaves the Warp array waiting on I/O",
		"matrix, grid, FFT, sorting all balanced or compute bound at aggregate intensity p·C/IO = 5",
		fmt.Sprintf("all computation-bounded states non-I/O-bound: %v", computeBoundedOK),
		computeBoundedOK,
	)
	r.AddClaim(
		"the §3.6 kernels starve even Warp: a 10-cell array at intensity 5 exceeds their ratio of 2",
		"matvec and triangular solve I/O bound on the aggregate",
		fmt.Sprintf("both I/O bound: %v", ioBoundedStarve),
		ioBoundedStarve,
	)

	// Matmul headroom: the aggregate needs only intensity² = 25 words to
	// balance, against 10×64K available — the ×26000 headroom is the
	// paper's design observation.
	mm, err := model.Analyze(agg, model.MatrixMultiplication(), 1e18)
	if err != nil {
		return nil, err
	}
	headroom := agg.M / mm.BalancedMemory
	r.AddClaim(
		"Warp's local memory vastly exceeds the balance requirement for matrix computations",
		"headroom ≫ 1 (large IO and M were deliberate)",
		fmt.Sprintf("aggregate needs %.4g words, has %.4g: headroom %.3g×", mm.BalancedMemory, agg.M, headroom),
		headroom > 1000,
	)

	// Simulated confirmation: run blocked matmul through the
	// double-buffered pipeline at three aggregate memory sizes — starved
	// (4 words), the analytic balance point (25 words), and the real
	// machine (640K words).
	w := array.MatMulWorkload{N: 1024}
	sims := textplot.NewTable("aggregate memory (words)", "compute util", "state")
	var utilAtBalance, utilStarved float64
	for _, mem := range []int{4, 25, int(agg.M)} {
		steps, err := w.Steps(mem)
		if err != nil {
			return nil, err
		}
		met, err := array.Simulate(arr.Rates(), steps)
		if err != nil {
			return nil, err
		}
		state := "compute bound / balanced"
		if met.IOBound(0.05) {
			state = "I/O bound"
		}
		switch mem {
		case 4:
			utilStarved = met.ComputeUtilization()
		case 25:
			utilAtBalance = met.ComputeUtilization()
		}
		sims.AddRow(mem, f2(met.ComputeUtilization()), state)
	}
	r.Tables = append(r.Tables, sims.String())
	r.AddClaim(
		"pipeline simulation confirms the analytic balance point of 25 aggregate words",
		"utilization ≈ 1 at 25 words, ≪ 1 below it",
		fmt.Sprintf("util(25) = %.3f, util(4) = %.3f", utilAtBalance, utilStarved),
		utilAtBalance > 0.9 && utilStarved < 0.6,
	)

	// Per-cell figures for the report.
	info := textplot.NewTable("Warp parameter", "value")
	info.AddRow("cells", model.WarpCells)
	info.AddRow("per-cell C", "10 MFLOPS")
	info.AddRow("per-cell IO", "20 Mwords/s")
	info.AddRow("per-cell M", "64K words")
	info.AddRow("per-cell intensity C/IO", cell.Intensity())
	info.AddRow("aggregate intensity p·C/IO", agg.Intensity())
	r.Tables = append(r.Tables, info.String())
	return r, nil
}
