package experiments

import (
	"context"
	"fmt"
	"slices"

	"balarch/internal/array"
	"balarch/internal/fit"
	"balarch/internal/machine"
	"balarch/internal/memsim"
	"balarch/internal/model"
	"balarch/internal/report"
	"balarch/internal/textplot"
)

// The X-series experiments are ablations of the reproduction's design
// choices (DESIGN.md §3 index): they vary one assumption the
// paper makes and confirm the result moves the way the model predicts.

// RunX1CornerMesh ablates the mesh's host attachment: the paper's §4.2
// "automatic balance" for matmul depends on the perimeter carrying host
// traffic (aggregate IO ∝ p). Feeding the same mesh through a single corner
// link holds IO constant, raises the effective α to p², and destroys the
// automatic balance — per-PE memory must then grow ∝ p².
func RunX1CornerMesh(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "X1", Title: "ablation: mesh host attachment (perimeter vs corner)", PaperLocus: "§4.2"}
	cell := model.PE{C: 4e6, IO: 1e6, M: 1}
	ladder := arrayLadder(1 << 13)
	w := array.MatMulWorkload{N: 4096}

	tb := textplot.NewTable("mesh side p", "perimeter per-PE M", "corner per-PE M")
	var ps, peri, corner []float64
	for _, p := range []int{2, 4, 8} {
		pm := array.MeshArray{P: p, Cell: cell, Host: array.PerimeterHost}
		bp1, err := array.FindBalancedMemory(pm.Rates(), pm.Cells(), w, ladder, 0.05)
		if err != nil {
			return nil, fmt.Errorf("perimeter p=%d: %w", p, err)
		}
		cm := array.MeshArray{P: p, Cell: cell, Host: array.CornerHost}
		bp2, err := array.FindBalancedMemory(cm.Rates(), cm.Cells(), w, ladder, 0.05)
		if err != nil {
			return nil, fmt.Errorf("corner p=%d: %w", p, err)
		}
		ps = append(ps, float64(p))
		peri = append(peri, float64(bp1.PerPEMemory))
		corner = append(corner, float64(bp2.PerPEMemory))
		tb.AddRow(p, bp1.PerPEMemory, bp2.PerPEMemory)
	}
	r.Tables = append(r.Tables, tb.String())

	spread := fit.GeometricSpan(peri)
	pl, err := fit.FitPowerLaw(ps, corner)
	if err != nil {
		return nil, err
	}
	r.AddClaim(
		"perimeter-fed mesh stays automatically balanced (per-PE memory flat)",
		"max/min ≈ 1",
		fmt.Sprintf("max/min = %.3g", spread),
		spread <= 2,
	)
	r.AddClaim(
		"corner-fed mesh loses automatic balance: α = p² forces per-PE memory ∝ p²",
		"power-law slope ≈ 2",
		fmt.Sprintf("slope %.3f (R²=%.4f)", pl.Exponent, pl.R2),
		within(pl.Exponent, 2, 0.75, 1.25) && pl.R2 > 0.9,
	)
	r.Series = append(r.Series,
		report.Series{Name: "perimeter", Columns: []string{"p", "per_pe_memory"}, Rows: rows2(ps, peri)},
		report.Series{Name: "corner", Columns: []string{"p", "per_pe_memory"}, Rows: rows2(ps, corner)},
	)
	return r, nil
}

// RunX2Overlap ablates the execution model behind the balance definition:
// the paper's balanced PE splits its time equally between compute and I/O,
// which costs 2× the runtime unless the two overlap. Double buffering
// recovers the factor: at the balance point the overlapped pipeline runs the
// same steps in half the serial makespan with the compute unit ≈ fully busy.
func RunX2Overlap(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "X2", Title: "ablation: serial vs double-buffered execution at the balance point", PaperLocus: "§2 (balance condition)"}
	// A PE exactly balanced for matmul at M = 1024: intensity 32 = √1024.
	rates := machine.Rates{ComputeOps: 32e6, IOWords: 1e6}
	w := array.MatMulWorkload{N: 4096}
	seq, err := w.Steps(1024)
	if err != nil {
		return nil, err
	}
	steps := slices.Collect(seq) // 16k steps, run six times
	serial, err := machine.RunSerial(rates, steps)
	if err != nil {
		return nil, err
	}
	pipe, err := machine.RunPipeline(rates, steps)
	if err != nil {
		return nil, err
	}

	tb := textplot.NewTable("execution", "makespan (s)", "compute util", "I/O util")
	tb.AddRow("serial (read, compute, write)", f2(serial.Makespan), f2(serial.ComputeUtilization()), f2(serial.IOUtilization()))
	tb.AddRow("double buffered", f2(pipe.Makespan), f2(pipe.ComputeUtilization()), f2(pipe.IOUtilization()))
	r.Tables = append(r.Tables, tb.String())

	speedup := serial.Makespan / pipe.Makespan
	r.AddClaim(
		"a balanced PE wastes half its time without overlap",
		"serial compute utilization ≈ 0.5",
		fmt.Sprintf("%.3f", serial.ComputeUtilization()),
		within(serial.ComputeUtilization(), 0.5, 0.9, 1.1),
	)
	r.AddClaim(
		"double buffering recovers the factor of two at the balance point",
		"speedup ≈ 2, overlapped compute utilization ≈ 1",
		fmt.Sprintf("speedup %.3f, utilization %.3f", speedup, pipe.ComputeUtilization()),
		within(speedup, 2, 0.85, 1.1) && pipe.ComputeUtilization() > 0.9,
	)

	// Buffer-count sweep: the curve saturates at two buffers for the
	// uniform macro-steps of the paper's decompositions.
	btb := textplot.NewTable("buffers", "compute util")
	util := map[int]float64{}
	for _, buffers := range []int{1, 2, 3, 4} {
		m, err := machine.RunPipelineBuffered(rates, steps, buffers)
		if err != nil {
			return nil, err
		}
		util[buffers] = m.ComputeUtilization()
		btb.AddRow(buffers, f2(m.ComputeUtilization()))
	}
	r.Tables = append(r.Tables, btb.String())
	r.AddClaim(
		"the overlap benefit saturates at two buffers for uniform steps",
		"util(1) ≈ 0.5; util(2) ≈ util(4) ≈ 1",
		fmt.Sprintf("util(1)=%.3f util(2)=%.3f util(4)=%.3f", util[1], util[2], util[4]),
		util[1] < 0.6 && util[2] > 0.9 && util[4] >= util[2]-0.02,
	)
	return r, nil
}

// RunX3PolicyVsSchedule ablates where the paper's I/O savings come from: a
// clairvoyant replacement policy (Belady OPT) on the naive schedule cannot
// approach what a dumb policy (LRU) achieves on the blocked schedule —
// restructuring the computation, not improving the cache, buys the √M.
func RunX3PolicyVsSchedule(ctx context.Context) (*report.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &report.Result{ID: "X3", Title: "ablation: replacement policy vs decomposition", PaperLocus: "§1, §3.1"}
	n, b := 32, 8
	cache := b*b + 4*b
	naive, err := memsim.NaiveMatMulTrace(n)
	if err != nil {
		return nil, err
	}
	blocked, err := memsim.BlockedMatMulTrace(n, b)
	if err != nil {
		return nil, err
	}
	nLRU, err := memsim.SimulateLRU(naive, cache)
	if err != nil {
		return nil, err
	}
	nOPT, err := memsim.SimulateOPT(naive, cache)
	if err != nil {
		return nil, err
	}
	bLRU, err := memsim.SimulateLRU(blocked, cache)
	if err != nil {
		return nil, err
	}
	bOPT, err := memsim.SimulateOPT(blocked, cache)
	if err != nil {
		return nil, err
	}

	tb := textplot.NewTable("schedule", "policy", "misses (I/O words)")
	tb.AddRow("naive", "LRU", nLRU.Misses)
	tb.AddRow("naive", "OPT (clairvoyant)", nOPT.Misses)
	tb.AddRow("blocked", "LRU", bLRU.Misses)
	tb.AddRow("blocked", "OPT (clairvoyant)", bOPT.Misses)
	r.Tables = append(r.Tables, tb.String())

	r.AddClaim(
		"a clairvoyant policy cannot rescue the naive schedule",
		"naive+OPT ≫ blocked+LRU",
		fmt.Sprintf("naive+OPT = %d vs blocked+LRU = %d (%.2f×)",
			nOPT.Misses, bLRU.Misses, float64(nOPT.Misses)/float64(bLRU.Misses)),
		nOPT.Misses > 2*bLRU.Misses,
	)
	r.AddClaim(
		"on the blocked schedule the policy barely matters",
		"blocked LRU/OPT ≈ 1",
		fmt.Sprintf("%.3f", float64(bLRU.Misses)/float64(bOPT.Misses)),
		float64(bLRU.Misses)/float64(bOPT.Misses) < 1.5,
	)
	return r, nil
}
