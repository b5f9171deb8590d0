package array

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"balarch/internal/kernels"
	"balarch/internal/machine"
	"balarch/internal/model"
	"balarch/internal/opcount"
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
	in, ops, out := machine.TotalWork(slices.Collect(steps))
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
	in, ops, out := machine.TotalWork(slices.Collect(steps))
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
	in, ops, out := machine.TotalWork(slices.Collect(steps))
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

// TestStreamsMatchSliceOracle: every workload's stream, collected, equals
// the slice the parent implementation built, at every aggregate memory the
// array experiments search (E8 linear matmul and 2-D grid, E9 mesh matmul
// and 3-D grid, X1 perimeter and corner meshes — the same aggregate
// memories — and E10's three Warp sizes), plus the FFT on a ladder. Where
// the oracle refuses a size, so must the stream.
func TestStreamsMatchSliceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every rung's step list twice")
	}
	type rung struct {
		w Workload
		m int
	}
	var rungs []rung
	add := func(w Workload, ladderMax int, cells ...int) {
		for _, c := range cells {
			for _, m := range arrayLadderLocal(ladderMax) {
				rungs = append(rungs, rung{w, m * c})
			}
		}
	}
	add(MatMulWorkload{N: 2048}, 1<<15, 1, 2, 4, 8, 16, 32)          // E8
	add(GridWorkload{Dim: 2, Size: 1024, Iters: 2}, 1<<15, 1, 4, 16) // E8
	add(MatMulWorkload{N: 4096}, 1<<14, 4, 16, 64, 256)              // E9, X1
	add(GridWorkload{Dim: 3, Size: 128, Iters: 2}, 1<<12, 4, 16, 64) // E9
	add(FFTWorkload{N: 1 << 16}, 1<<12, 1)
	for _, m := range []int{4, 25, 655360} { // E10
		rungs = append(rungs, rung{MatMulWorkload{N: 1024}, m})
	}
	seen := map[string]bool{}
	for _, r := range rungs {
		key := fmt.Sprintf("%s@%d", r.w.Name(), r.m)
		if seen[key] {
			continue
		}
		seen[key] = true
		var want []machine.Step
		var werr error
		switch w := r.w.(type) {
		case MatMulWorkload:
			want, werr = oracleMatMulSteps(w, r.m)
		case GridWorkload:
			want, werr = oracleGridSteps(w, r.m)
		case FFTWorkload:
			want, werr = oracleFFTSteps(w, r.m)
		}
		seq, err := r.w.Steps(r.m)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: stream error %v, oracle error %v", key, err, werr)
		}
		if err != nil {
			continue
		}
		if got := slices.Collect(seq); !slices.Equal(got, want) {
			t.Fatalf("%s: stream of %d steps differs from the oracle's %d", key, len(got), len(want))
		}
	}
}

// TestStreamsStopEarly: breaking out of a stream stops it cleanly, and a
// stream ranges again from the start.
func TestStreamsStopEarly(t *testing.T) {
	for _, w := range []Workload{MatMulWorkload{N: 64}, GridWorkload{Dim: 3, Size: 16, Iters: 3}, FFTWorkload{N: 1024}} {
		seq, err := w.Steps(16)
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Collect(seq)
		for _, stop := range []int{0, 1, len(all) / 2, len(all) - 1} {
			var got []machine.Step
			for st := range seq {
				if len(got) == stop {
					break
				}
				got = append(got, st)
			}
			if !slices.Equal(got, all[:stop]) {
				t.Errorf("%s: stopping after %d steps yielded %d steps", w.Name(), stop, len(got))
			}
		}
	}
}

// TestStepCapsDoNotOverflow: step counts whose product wraps int are
// refused, not run; a count exactly at the cap is accepted.
func TestStepCapsDoNotOverflow(t *testing.T) {
	// nb = 2^32 blocks per side: nb*nb wraps to 0.
	if _, err := (MatMulWorkload{N: 1 << 33}).Steps(4); err == nil || !strings.Contains(err.Error(), "would need") {
		t.Errorf("matmul N=2^33 at memory 4: %v", err)
	}
	// 4 tiles × 2^62 iterations wraps to 0.
	if _, err := (GridWorkload{Dim: 2, Size: 1024, Iters: 1 << 62}).Steps(512 * 512); err == nil || !strings.Contains(err.Error(), "would need") {
		t.Errorf("grid with 2^62 iterations: %v", err)
	}
	if _, err := (GridWorkload{Dim: 2, Size: 1024, Iters: MaxWorkloadSteps / 4}).Steps(512 * 512); err != nil {
		t.Errorf("grid exactly at the cap refused: %v", err)
	}
	if _, err := (GridWorkload{Dim: 2, Size: 1024, Iters: MaxWorkloadSteps/4 + 1}).Steps(512 * 512); err == nil {
		t.Error("grid one iteration past the cap accepted")
	}
	// 1024×1024 blocks is under the cap, 2048×2048 over it.
	if _, err := (MatMulWorkload{N: 1024}).Steps(1); err != nil {
		t.Errorf("matmul with 2^20 steps refused: %v", err)
	}
	if _, err := (MatMulWorkload{N: 2048}).Steps(1); err == nil {
		t.Error("matmul with 2^22 steps accepted")
	}
	// The aggregate memory itself must not wrap.
	rates := machine.Rates{ComputeOps: 1e12, IOWords: 1}
	if _, err := FindBalancedMemory(rates, 4, MatMulWorkload{N: 64}, []int{1 << 62}, 0.05); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("per-PE memory 2^62 × 4 cells: %v", err)
	}
}

// BenchmarkFindBalancedMemory is E8's p = 1 search: matmul N = 2048 on the
// 4…32768 ladder. The rungs the totals test cannot rule out have their
// steps streamed into the pipeline.
func BenchmarkFindBalancedMemory(b *testing.B) {
	rates := LinearArray{P: 1, Cell: model.PE{C: 4e6, IO: 1e6, M: 1}}.Rates()
	ladder := arrayLadderLocal(1 << 15)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := FindBalancedMemory(rates, 1, MatMulWorkload{N: 2048}, ladder, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// search is one FindBalancedMemory call.
type search struct {
	rates  machine.Rates
	cells  int
	w      Workload
	ladder []int
	tol    float64
}

func (s search) String() string {
	return fmt.Sprintf("%s C=%v IO=%v cells=%d tol=%v ladder=%v", s.w.Name(), s.rates.ComputeOps, s.rates.IOWords, s.cells, s.tol, s.ladder)
}

// experimentSearches are the balance searches E8, E9 and X1 run.
func experimentSearches() []search {
	var out []search
	cell := model.PE{C: 4e6, IO: 1e6, M: 1}
	for _, p := range []int{1, 2, 4, 8, 16, 32} { // E8 matmul
		out = append(out, search{LinearArray{P: p, Cell: cell}.Rates(), p, MatMulWorkload{N: 2048}, arrayLadderLocal(1 << 15), 0.05})
	}
	for _, p := range []int{1, 4, 16} { // E8 2-D grid
		out = append(out, search{LinearArray{P: p, Cell: cell}.Rates(), p, GridWorkload{Dim: 2, Size: 1024, Iters: 2}, arrayLadderLocal(1 << 15), 0.05})
	}
	for _, p := range []int{2, 4, 8, 16} { // E9 matmul
		a := MeshArray{P: p, Cell: cell}
		out = append(out, search{a.Rates(), a.Cells(), MatMulWorkload{N: 4096}, arrayLadderLocal(1 << 14), 0.05})
	}
	for _, p := range []int{2, 4, 8} { // E9 3-D grid
		a := MeshArray{P: p, Cell: model.PE{C: 2e6, IO: 1e6, M: 1}}
		out = append(out, search{a.Rates(), a.Cells(), GridWorkload{Dim: 3, Size: 128, Iters: 2}, arrayLadderLocal(1 << 12), 0.05})
	}
	for _, p := range []int{2, 4, 8} { // X1
		for _, host := range []HostAttachment{PerimeterHost, CornerHost} {
			a := MeshArray{P: p, Cell: cell, Host: host}
			out = append(out, search{a.Rates(), a.Cells(), MatMulWorkload{N: 4096}, arrayLadderLocal(1 << 13), 0.05})
		}
	}
	return out
}

// randomSearches draws seeded searches: C/IO from 1/8 to 4096, tol from
// {0, 0.05, 0.5}, 1–64 cells, and all three workloads at ragged sizes.
func randomSearches(seed int64, n int) []search {
	rng := rand.New(rand.NewSource(seed))
	out := make([]search, 0, n)
	for range n {
		io := math.Exp2(rng.Float64()*40 - 20)
		rates := machine.Rates{ComputeOps: io * math.Exp2(rng.Float64()*15-3), IOWords: io}
		var w Workload
		switch rng.Intn(3) {
		case 0:
			w = MatMulWorkload{N: 1 + rng.Intn(600)}
		case 1:
			d := 1 + rng.Intn(3)
			w = GridWorkload{Dim: d, Size: 3 + rng.Intn([]int{4000, 200, 40}[d-1]), Iters: 1 + rng.Intn(3)}
		default:
			w = FFTWorkload{N: 1 << (1 + rng.Intn(14))}
		}
		ladder := []int{1 + rng.Intn(8)}
		for len(ladder) < 4+rng.Intn(12) {
			ladder = append(ladder, ladder[len(ladder)-1]*(2+rng.Intn(2)))
		}
		tol := []float64{0, 0.05, 0.5}[rng.Intn(3)]
		out = append(out, search{rates, 1 + rng.Intn(64), w, ladder, tol})
	}
	return out
}

// TestFindBalancedMemoryMatchesLinearScan: the search that skips rungs by
// their totals returns exactly what simulating every rung returns — the
// BalancePoint with == (Metrics included) and the error text — for every
// E8, E9 and X1 search, seeded random searches, totals that wrap uint64
// and extreme rates.
func TestFindBalancedMemoryMatchesLinearScan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every rung of the experiments' searches")
	}
	searches := append(experimentSearches(), randomSearches(2210, 300)...)
	// 2N³ wraps uint64 at N = 2^22; the steps themselves do not.
	for _, io := range []float64{1, 1e6} {
		searches = append(searches, search{machine.Rates{ComputeOps: 1000 * io, IOWords: io}, 1, MatMulWorkload{N: 1 << 22}, []int{1 << 24, 1 << 26}, 0.05})
	}
	// Subnormal, huge and invalid rates; tolerances past 1 and below 0.
	extreme := []float64{math.SmallestNonzeroFloat64, 1e-310, 1e-300, 1, math.MaxFloat64, 0, -1, math.NaN()}
	for _, c := range extreme {
		for _, io := range extreme {
			for _, w := range []Workload{MatMulWorkload{N: 5}, GridWorkload{Dim: 2, Size: 9, Iters: 1}, FFTWorkload{N: 16}} {
				for _, tol := range []float64{0, 0.05, 1, 1.5, -1, math.NaN(), math.Inf(-1)} {
					searches = append(searches, search{machine.Rates{ComputeOps: c, IOWords: io}, 1, w, []int{1, 2, 4, 16, 64}, tol})
				}
			}
		}
	}
	var balanced, failed int
	for _, s := range searches {
		got, err := FindBalancedMemory(s.rates, s.cells, s.w, s.ladder, s.tol)
		want, werr := linearScanFindBalancedMemory(s.rates, s.cells, s.w, s.ladder, s.tol)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%v: error %v, linear scan %v", s, err, werr)
		}
		if got != want {
			t.Fatalf("%v: %+v, linear scan %+v", s, got, want)
		}
		if err == nil {
			balanced++
		} else {
			failed++
		}
	}
	// Both outcomes must be exercised for the comparison to mean much.
	if balanced < 100 || failed < 50 {
		t.Errorf("%d searches balanced and %d failed; the cases no longer cover both", balanced, failed)
	}
}

// TestTotalsMatchStreams: every workload's Totals equals the machine's
// TotalWork of its collected stream at every rung the experiment searches
// and the random searches visit, ragged sizes included; where Steps fails
// for a reason other than the step cap, Totals fails with the same error.
func TestTotalsMatchStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("collects every rung's steps")
	}
	searches := append(experimentSearches(), randomSearches(2211, 120)...)
	for _, w := range []Workload{MatMulWorkload{N: 1000}, GridWorkload{Dim: 2, Size: 37, Iters: 3}, GridWorkload{Dim: 3, Size: 37, Iters: 1}} {
		searches = append(searches, search{w: w, cells: 1, ladder: arrayLadderLocal(1 << 12)})
	}
	seen := map[string]bool{}
	for _, s := range searches {
		for _, m := range s.ladder {
			key := fmt.Sprintf("%s@%d", s.w.Name(), m*s.cells)
			if seen[key] {
				continue
			}
			seen[key] = true
			seq, serr := s.w.Steps(m * s.cells)
			got, err := s.w.Totals(m * s.cells)
			if serr != nil {
				if !strings.Contains(serr.Error(), "would need") && fmt.Sprint(err) != fmt.Sprint(serr) {
					t.Fatalf("%s: Totals error %v, Steps error %v", key, err, serr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			in, ops, out := machine.TotalWork(slices.Collect(seq))
			if want := (opcount.Totals{Reads: in, Ops: ops, Writes: out}); got != want {
				t.Fatalf("%s: Totals %+v, stream %+v", key, got, want)
			}
		}
	}
	// Totals that do not fit in uint64 are refused, not wrapped: each
	// pair is the largest size whose bound fits and the next.
	for _, c := range []struct{ fits, overflows Workload }{
		{MatMulWorkload{N: 1<<21 - 1}, MatMulWorkload{N: 1 << 21}},                                      // 2N³
		{GridWorkload{Dim: 3, Size: 1 << 19, Iters: 9}, GridWorkload{Dim: 3, Size: 1 << 19, Iters: 10}}, // 13·N³·iters
		{FFTWorkload{N: 1 << 55}, FFTWorkload{N: 1 << 56}},                                              // 5·N·log₂N
	} {
		if _, err := c.fits.Totals(1 << 60); err != nil {
			t.Errorf("%s: %v", c.fits.Name(), err)
		}
		if _, err := c.overflows.Totals(1 << 60); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s: Totals error %v, want an overflow", c.overflows.Name(), err)
		}
	}
}

// linearScanFindBalancedMemory is the parent's FindBalancedMemory, which
// simulates every rung, kept verbatim as the reference for
// TestFindBalancedMemoryMatchesLinearScan.
func linearScanFindBalancedMemory(rates machine.Rates, cells int, w Workload, ladder []int, tol float64) (BalancePoint, error) {
	if cells < 1 {
		return BalancePoint{}, fmt.Errorf("array: cell count %d must be ≥ 1", cells)
	}
	if len(ladder) == 0 {
		return BalancePoint{}, fmt.Errorf("array: empty memory ladder")
	}
	prev := 0
	for _, m := range ladder {
		if m <= prev {
			return BalancePoint{}, fmt.Errorf("array: ladder must be strictly increasing, got %d after %d", m, prev)
		}
		prev = m
	}
	for _, m := range ladder {
		if m > math.MaxInt/cells {
			return BalancePoint{}, fmt.Errorf("array: per-PE memory %d × %d cells overflows int", m, cells)
		}
		steps, err := w.Steps(m * cells)
		if err != nil {
			return BalancePoint{}, fmt.Errorf("array: %s at per-PE memory %d: %w", w.Name(), m, err)
		}
		metrics, err := Simulate(rates, steps)
		if err != nil {
			return BalancePoint{}, err
		}
		if !metrics.IOBound(tol) {
			return BalancePoint{
				PerPEMemory:     m,
				AggregateMemory: m * cells,
				Metrics:         metrics,
			}, nil
		}
	}
	return BalancePoint{}, fmt.Errorf("array: %s still I/O bound at per-PE memory %d", w.Name(), ladder[len(ladder)-1])
}

// The slice-building Steps implementations the streams replaced, kept
// verbatim as the reference for TestStreamsMatchSliceOracle.

func oracleMatMulSteps(w MatMulWorkload, mTotal int) ([]machine.Step, error) {
	if w.N < 1 {
		return nil, fmt.Errorf("array: matmul N=%d must be ≥ 1", w.N)
	}
	b := int(math.Sqrt(float64(mTotal)))
	if b < 1 {
		return nil, fmt.Errorf("array: memory %d too small for any block", mTotal)
	}
	if b > w.N {
		b = w.N
	}
	nb := (w.N + b - 1) / b
	if nb*nb > MaxWorkloadSteps {
		return nil, fmt.Errorf("array: matmul would need %d steps (> %d)", nb*nb, MaxWorkloadSteps)
	}
	steps := make([]machine.Step, 0, nb*nb)
	n := uint64(w.N)
	for i0 := 0; i0 < w.N; i0 += b {
		rows := uint64(min(b, w.N-i0))
		for j0 := 0; j0 < w.N; j0 += b {
			cols := uint64(min(b, w.N-j0))
			steps = append(steps, machine.Step{
				InWords:  n * (rows + cols),
				Ops:      2 * n * rows * cols,
				OutWords: rows * cols,
			})
		}
	}
	return steps, nil
}

func oracleGridSteps(w GridWorkload, mTotal int) ([]machine.Step, error) {
	if w.Dim < 1 || w.Size < 3 || w.Iters < 1 {
		return nil, fmt.Errorf("array: invalid grid workload %+v", w)
	}
	s := int(math.Floor(math.Pow(float64(mTotal), 1/float64(w.Dim))))
	if s < 1 {
		return nil, fmt.Errorf("array: memory %d too small for any tile", mTotal)
	}
	if s > w.Size {
		s = w.Size
	}
	tilesPerDim := (w.Size + s - 1) / s
	nTiles := 1
	for d := 0; d < w.Dim; d++ {
		nTiles *= tilesPerDim
		if nTiles > MaxWorkloadSteps {
			return nil, fmt.Errorf("array: grid would need > %d tiles", MaxWorkloadSteps)
		}
	}
	if w.Iters*nTiles > MaxWorkloadSteps {
		return nil, fmt.Errorf("array: grid would need %d steps (> %d)", w.Iters*nTiles, MaxWorkloadSteps)
	}

	ext := func(lo int) int { return min(s, w.Size-lo) }
	tileLo := make([]int, w.Dim)
	var tileSteps []machine.Step
	var rec func(dim int)
	rec = func(dim int) {
		if dim < w.Dim {
			for lo := 0; lo < w.Size; lo += s {
				tileLo[dim] = lo
				rec(dim + 1)
			}
			return
		}
		var halo, interior uint64 = 0, 1
		for k := 0; k < w.Dim; k++ {
			area := uint64(1)
			for j := 0; j < w.Dim; j++ {
				if j != k {
					area *= uint64(ext(tileLo[j]))
				}
			}
			if tileLo[k] > 0 {
				halo += 2 * area // receive + send one face
			}
			if tileLo[k]+ext(tileLo[k]) < w.Size {
				halo += 2 * area
			}
			lo, hi := tileLo[k], tileLo[k]+ext(tileLo[k])
			if lo == 0 {
				lo = 1
			}
			if hi == w.Size {
				hi = w.Size - 1
			}
			if hi <= lo {
				interior = 0
			} else {
				interior *= uint64(hi - lo)
			}
		}
		tileSteps = append(tileSteps, machine.Step{
			InWords:  halo / 2,
			Ops:      interior * uint64(4*w.Dim+1),
			OutWords: halo / 2,
		})
	}
	rec(0)

	steps := make([]machine.Step, 0, w.Iters*len(tileSteps))
	for it := 0; it < w.Iters; it++ {
		steps = append(steps, tileSteps...)
	}
	return steps, nil
}

func oracleFFTSteps(w FFTWorkload, mTotal int) ([]machine.Step, error) {
	if w.N < 2 || w.N&(w.N-1) != 0 {
		return nil, fmt.Errorf("array: FFT N=%d must be a power of two ≥ 2", w.N)
	}
	b := 2
	for b*2 <= mTotal && b*2 <= w.N {
		b *= 2
	}
	if b > mTotal {
		return nil, fmt.Errorf("array: memory %d below the minimum block of 2", mTotal)
	}
	totalStages := 0
	for v := w.N; v > 1; v >>= 1 {
		totalStages++
	}
	perPass := 0
	for v := b; v > 1; v >>= 1 {
		perPass++
	}
	var steps []machine.Step
	for stageLo := 0; stageLo < totalStages; stageLo += perPass {
		lp := min(perPass, totalStages-stageLo)
		groupSize := uint64(1) << lp
		groups := w.N / int(groupSize)
		if len(steps)+groups > MaxWorkloadSteps {
			return nil, fmt.Errorf("array: FFT would need > %d steps", MaxWorkloadSteps)
		}
		for g := 0; g < groups; g++ {
			steps = append(steps, machine.Step{
				InWords:  groupSize,
				Ops:      groupSize / 2 * uint64(lp) * 10,
				OutWords: groupSize,
			})
		}
	}
	return steps, nil
}
