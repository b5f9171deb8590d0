package array

import (
	"math"
	"testing"

	"balarch/internal/kernels"
	"balarch/internal/machine"
	"balarch/internal/model"
)

func TestLinearArrayAggregate(t *testing.T) {
	a := LinearArray{P: 8, Cell: model.PE{C: 2e6, IO: 1e6, M: 1024}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	agg := a.Aggregate()
	if agg.C != 16e6 {
		t.Errorf("aggregate C = %v, want 16e6", agg.C)
	}
	if agg.IO != 1e6 {
		t.Errorf("aggregate IO = %v, want 1e6 (boundary cells only)", agg.IO)
	}
	if agg.M != 8192 {
		t.Errorf("aggregate M = %v, want 8192", agg.M)
	}
	if a.AlphaIncrease() != 8 {
		t.Errorf("alpha = %v, want 8", a.AlphaIncrease())
	}
}

func TestMeshArrayAggregate(t *testing.T) {
	a := MeshArray{P: 4, Cell: model.PE{C: 1e6, IO: 1e6, M: 256}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	agg := a.Aggregate()
	if agg.C != 16e6 {
		t.Errorf("aggregate C = %v, want 16e6 (p² cells)", agg.C)
	}
	if agg.IO != 4e6 {
		t.Errorf("aggregate IO = %v, want 4e6 (perimeter)", agg.IO)
	}
	if a.Cells() != 16 {
		t.Errorf("Cells = %d, want 16", a.Cells())
	}
	if a.AlphaIncrease() != 4 {
		t.Errorf("alpha = %v, want 4 (p²/p)", a.AlphaIncrease())
	}
}

func TestArrayValidation(t *testing.T) {
	if err := (LinearArray{P: 0, Cell: model.PE{C: 1, IO: 1, M: 1}}).Validate(); err == nil {
		t.Error("zero-size linear array accepted")
	}
	if err := (MeshArray{P: 2, Cell: model.PE{}}).Validate(); err == nil {
		t.Error("invalid cell accepted")
	}
}

func TestMatMulWorkloadStepsMatchKernelCounts(t *testing.T) {
	// The workload's step stream must sum to exactly the kernel counter's
	// totals for the same block size.
	n, b := 256, 16
	w := MatMulWorkload{N: n}
	steps, err := w.Steps(b * b)
	if err != nil {
		t.Fatal(err)
	}
	in, ops, out := machine.TotalWork(steps)
	want, err := kernels.CountBlockedMatMul(kernels.MatMulSpec{N: n, Block: b})
	if err != nil {
		t.Fatal(err)
	}
	if in != want.Reads || ops != want.Ops || out != want.Writes {
		t.Errorf("workload totals (%d,%d,%d) != kernel counts (%d,%d,%d)",
			in, ops, out, want.Reads, want.Ops, want.Writes)
	}
}

func TestGridWorkloadStepsMatchKernelCounts(t *testing.T) {
	w := GridWorkload{Dim: 2, Size: 64, Iters: 3}
	s := 8
	steps, err := w.Steps(s * s)
	if err != nil {
		t.Fatal(err)
	}
	in, ops, out := machine.TotalWork(steps)
	want, err := kernels.CountRelaxTiled(kernels.GridSpec{Dim: 2, Size: 64, Tile: s, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if in != want.Reads || ops != want.Ops || out != want.Writes {
		t.Errorf("workload totals (%d,%d,%d) != kernel counts (%d,%d,%d)",
			in, ops, out, want.Reads, want.Ops, want.Writes)
	}
}

func TestFFTWorkloadStepsMatchKernelCounts(t *testing.T) {
	w := FFTWorkload{N: 1024}
	steps, err := w.Steps(32)
	if err != nil {
		t.Fatal(err)
	}
	in, ops, out := machine.TotalWork(steps)
	want, err := kernels.CountBlockedFFT(kernels.FFTSpec{N: 1024, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if in != want.Reads || ops != want.Ops || out != want.Writes {
		t.Errorf("workload totals (%d,%d,%d) != kernel counts (%d,%d,%d)",
			in, ops, out, want.Reads, want.Ops, want.Writes)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := (MatMulWorkload{N: 0}).Steps(16); err == nil {
		t.Error("matmul N=0 accepted")
	}
	if _, err := (MatMulWorkload{N: 16}).Steps(0); err == nil {
		t.Error("matmul zero memory accepted")
	}
	if _, err := (GridWorkload{Dim: 0, Size: 8, Iters: 1}).Steps(16); err == nil {
		t.Error("grid dim=0 accepted")
	}
	if _, err := (FFTWorkload{N: 12}).Steps(16); err == nil {
		t.Error("fft non-power-of-two accepted")
	}
	if _, err := (FFTWorkload{N: 16}).Steps(1); err == nil {
		t.Error("fft memory below one butterfly accepted")
	}
	// Step-count cap.
	if _, err := (MatMulWorkload{N: 1 << 15}).Steps(4); err == nil {
		t.Error("step explosion not capped")
	}
}

// TestLinearArrayBalanceGrowsWithP is §4.1 on the simulator: the per-PE
// memory needed to keep a linear array busy grows with p.
func TestLinearArrayBalanceGrowsWithP(t *testing.T) {
	cell := model.PE{C: 4e6, IO: 1e6, M: 1} // intensity 4 per cell
	ladder := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	var prev int
	for _, p := range []int{1, 4, 16} {
		arr := LinearArray{P: p, Cell: cell}
		bp, err := FindBalancedMemory(arr.Rates(), p, MatMulWorkload{N: 2048}, ladder, 0.05)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if bp.PerPEMemory < prev {
			t.Errorf("p=%d: balance memory %d below p=%d's %d — must grow",
				p, bp.PerPEMemory, p/4, prev)
		}
		// The analytic balance point is per-PE m = p·(C/IO)² = 16p;
		// the ladder quantizes upward by ≤ 2×.
		analytic := 16 * float64(p)
		if got := float64(bp.PerPEMemory); got < analytic/2 || got > analytic*4 {
			t.Errorf("p=%d: balance memory %v far from analytic %v", p, got, analytic)
		}
		prev = bp.PerPEMemory
	}
}

// TestMeshBalanceFlatForMatMul is §4.2 on the simulator: a mesh running
// matmul balances at a per-PE memory that does not grow with p.
func TestMeshBalanceFlatForMatMul(t *testing.T) {
	cell := model.PE{C: 4e6, IO: 1e6, M: 1}
	ladder := []int{4, 8, 16, 32, 64, 128, 256, 512}
	var first int
	for i, p := range []int{2, 4, 8} {
		arr := MeshArray{P: p, Cell: cell}
		bp, err := FindBalancedMemory(arr.Rates(), arr.Cells(), MatMulWorkload{N: 2048}, ladder, 0.05)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if i == 0 {
			first = bp.PerPEMemory
			continue
		}
		// Flat within one ladder rung.
		if bp.PerPEMemory > 2*first || bp.PerPEMemory < first/2 {
			t.Errorf("p=%d: balance memory %d drifted from %d — should be constant",
				p, bp.PerPEMemory, first)
		}
	}
}

func TestFindBalancedMemoryErrors(t *testing.T) {
	rates := machine.Rates{ComputeOps: 1e6, IOWords: 1e6}
	if _, err := FindBalancedMemory(rates, 0, MatMulWorkload{N: 64}, []int{4}, 0.05); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := FindBalancedMemory(rates, 1, MatMulWorkload{N: 64}, nil, 0.05); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := FindBalancedMemory(rates, 1, MatMulWorkload{N: 64}, []int{8, 8}, 0.05); err == nil {
		t.Error("non-increasing ladder accepted")
	}
	// Hopeless intensity: matvec-like starvation cannot balance.
	starved := machine.Rates{ComputeOps: 1e12, IOWords: 1}
	if _, err := FindBalancedMemory(starved, 1, MatMulWorkload{N: 256}, []int{4, 16}, 0.05); err == nil {
		t.Error("unbalanceable configuration reported balanced")
	}
}

// TestSimulatedBalanceMatchesAnalytic: for a single PE, the simulated
// balance memory must sit within a ladder rung of the model's
// RequiredMemory inversion.
func TestSimulatedBalanceMatchesAnalytic(t *testing.T) {
	pe := model.PE{C: 8e6, IO: 1e6, M: 1} // intensity 8
	rates := machine.Rates{ComputeOps: pe.C, IOWords: pe.IO}
	ladder := []int{4, 8, 16, 32, 64, 128, 256}
	bp, err := FindBalancedMemory(rates, 1, MatMulWorkload{N: 2048}, ladder, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.MatrixMultiplication().RequiredMemory(pe.Intensity(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := want/2, want*4
	if got := float64(bp.PerPEMemory); got < lo || got > hi {
		t.Errorf("simulated balance %v vs analytic %v (allow [%v,%v])", got, want, lo, hi)
	}
	_ = math.Sqrt // keep math imported for clarity of future edits
}

func TestCornerHostAggregate(t *testing.T) {
	cell := model.PE{C: 1e6, IO: 1e6, M: 64}
	peri := MeshArray{P: 4, Cell: cell}
	corner := MeshArray{P: 4, Cell: cell, Host: CornerHost}
	if got := peri.Aggregate().IO; got != 4e6 {
		t.Errorf("perimeter IO = %v, want 4e6", got)
	}
	if got := corner.Aggregate().IO; got != 1e6 {
		t.Errorf("corner IO = %v, want 1e6", got)
	}
	if peri.AlphaIncrease() != 4 || corner.AlphaIncrease() != 16 {
		t.Errorf("alpha: perimeter %v (want 4), corner %v (want 16)",
			peri.AlphaIncrease(), corner.AlphaIncrease())
	}
	if PerimeterHost.String() == "" || CornerHost.String() == "" || HostAttachment(9).String() == "" {
		t.Error("HostAttachment.String incomplete")
	}
}

// TestCornerMeshNeedsMoreMemory: the corner-fed mesh must balance at a
// strictly larger per-PE memory than the perimeter-fed one at the same p.
func TestCornerMeshNeedsMoreMemory(t *testing.T) {
	cell := model.PE{C: 4e6, IO: 1e6, M: 1}
	ladder := arrayLadderLocal(1 << 13)
	w := MatMulWorkload{N: 4096}
	p := 4
	peri := MeshArray{P: p, Cell: cell}
	bp1, err := FindBalancedMemory(peri.Rates(), peri.Cells(), w, ladder, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	corner := MeshArray{P: p, Cell: cell, Host: CornerHost}
	bp2, err := FindBalancedMemory(corner.Rates(), corner.Cells(), w, ladder, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if bp2.PerPEMemory <= bp1.PerPEMemory {
		t.Errorf("corner balance %d not above perimeter %d", bp2.PerPEMemory, bp1.PerPEMemory)
	}
}

func arrayLadderLocal(max int) []int {
	var ladder []int
	for m := 4; m <= max; m *= 2 {
		ladder = append(ladder, m)
	}
	return ladder
}

// TestLinearArrayMatchesRebalanceLaw is the α-law oracle on a grid of
// machines: a p-cell linear array raises C/IO by α = p at a fixed boundary
// bandwidth, so its simulated aggregate balance memory must sit within one
// ladder rung of Computation.Rebalance(p, m₁), where m₁ is the simulated
// single-cell balance memory of the same cell.
func TestLinearArrayMatchesRebalanceLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 24 balance searches")
	}
	ladder := []int{4}
	for len(ladder) < 14 {
		ladder = append(ladder, 2*ladder[len(ladder)-1])
	}
	cases := []struct {
		w    Workload
		comp model.Computation
	}{
		{MatMulWorkload{N: 2048}, model.MatrixMultiplication()},
		{GridWorkload{Dim: 2, Size: 1024, Iters: 2}, model.Grid(2)},
	}
	for _, c := range cases {
		for _, intensity := range []float64{2, 4, 8} {
			cell := model.PE{C: intensity * 1e6, IO: 1e6, M: 1}
			find := func(p int) int {
				arr := LinearArray{P: p, Cell: cell}
				bp, err := FindBalancedMemory(arr.Rates(), p, c.w, ladder, 0.05)
				if err != nil {
					t.Fatalf("%s, intensity %v, p=%d: %v", c.w.Name(), intensity, p, err)
				}
				return bp.AggregateMemory
			}
			m1 := find(1)
			for _, p := range []int{2, 4, 8, 16} {
				want, err := c.comp.Rebalance(float64(p), float64(m1), 1<<40)
				if err != nil {
					t.Fatal(err)
				}
				got := find(p)
				// Adjacent rungs differ by 2× per cell, so one rung
				// is a factor of 2 in aggregate memory either way.
				if r := float64(got) / want; r < 0.5 || r > 2 {
					t.Errorf("%s, intensity %v, p=%d: aggregate balance memory %d, Rebalance(%d, %d) = %.0f",
						c.w.Name(), intensity, p, got, p, m1, want)
				}
			}
		}
	}
}
