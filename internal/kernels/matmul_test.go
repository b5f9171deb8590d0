package kernels

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"balarch/internal/opcount"
)

func TestBlockedMatMulCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, block int }{
		{4, 2}, {8, 4}, {16, 4}, {16, 16}, {12, 5}, {17, 4}, {9, 3}, {7, 7}, {1, 1},
	} {
		a := NewDenseRandom(tc.n, tc.n, rng)
		b := NewDenseRandom(tc.n, tc.n, rng)
		var c opcount.Counter
		got, err := BlockedMatMul(MatMulSpec{N: tc.n, Block: tc.block}, a, b, &c)
		if err != nil {
			t.Fatalf("n=%d block=%d: %v", tc.n, tc.block, err)
		}
		want := a.MulRef(b)
		if diff := got.MaxAbsDiff(want); diff > 1e-12*float64(tc.n) {
			t.Errorf("n=%d block=%d: max diff %g vs reference", tc.n, tc.block, diff)
		}
	}
}

func TestBlockedMatMulCountsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ n, block int }{
		{8, 2}, {16, 4}, {12, 5}, {17, 4}, {6, 6},
	} {
		spec := MatMulSpec{N: tc.n, Block: tc.block}
		a := NewDenseRandom(tc.n, tc.n, rng)
		b := NewDenseRandom(tc.n, tc.n, rng)
		var c opcount.Counter
		if _, err := BlockedMatMul(spec, a, b, &c); err != nil {
			t.Fatal(err)
		}
		want, err := CountBlockedMatMul(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); got != want {
			t.Errorf("n=%d block=%d: run counted %+v, closed form %+v", tc.n, tc.block, got, want)
		}
	}
}

func TestBlockedMatMulExactCounts(t *testing.T) {
	// For N divisible by b: Ccomp = 2N³, Creads = (N/b)²·N·2b = 2N²·N/b·b...
	// reads = (N/b)² · N(b+b) = 2N³/b, writes = N².
	spec := MatMulSpec{N: 64, Block: 8}
	got, err := CountBlockedMatMul(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, b := uint64(64), uint64(8)
	if want := 2 * n * n * n; got.Ops != want {
		t.Errorf("ops = %d, want %d", got.Ops, want)
	}
	if want := 2 * n * n * n / b; got.Reads != want {
		t.Errorf("reads = %d, want %d", got.Reads, want)
	}
	if want := n * n; got.Writes != want {
		t.Errorf("writes = %d, want %d", got.Writes, want)
	}
}

// TestMatMulRatioApproachesSqrtM verifies the §3.1 claim: as N ≫ M, the
// achieved Ccomp/Cio approaches √M = b (with M = b²).
func TestMatMulRatioApproachesSqrtM(t *testing.T) {
	b := 16
	spec := MatMulSpec{N: 4096, Block: b}
	tot, err := CountBlockedMatMul(spec)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tot.Ratio()
	// ratio = 2N b² / (2Nb + b²) → b as N → ∞.
	if math.Abs(ratio-float64(b))/float64(b) > 0.01 {
		t.Errorf("ratio = %v, want ≈ %d (within 1%%)", ratio, b)
	}
}

func TestMatMulSpecValidation(t *testing.T) {
	bad := []MatMulSpec{{N: 0, Block: 1}, {N: 4, Block: 0}, {N: 4, Block: 8}, {N: -1, Block: 1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
		if _, err := CountBlockedMatMul(s); err == nil {
			t.Errorf("count of %+v accepted", s)
		}
	}
	var c opcount.Counter
	a := NewDense(4, 4)
	if _, err := BlockedMatMul(MatMulSpec{N: 8, Block: 2}, a, a, &c); err == nil {
		t.Error("mismatched operand shape accepted")
	}
}

func TestMatMulSpecAccessors(t *testing.T) {
	s := MatMulSpec{N: 100, Block: 10}
	if got := s.Memory(); got != 120 {
		t.Errorf("Memory = %d, want 120", got)
	}
	if got := s.Steps(); got != 100 {
		t.Errorf("Steps = %d, want 100", got)
	}
	ragged := MatMulSpec{N: 101, Block: 10}
	if got := ragged.Steps(); got != 121 {
		t.Errorf("ragged Steps = %d, want 121", got)
	}
}

func TestMatMulRatioSweepMonotone(t *testing.T) {
	pts, err := MatMulRatioSweep(context.Background(), 2048, []int{4, 8, 16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Ratio() <= pts[i-1].Ratio() {
			t.Errorf("ratio not increasing at %d: %v then %v", i, pts[i-1].Ratio(), pts[i].Ratio())
		}
		if pts[i].Memory <= pts[i-1].Memory {
			t.Errorf("memory not increasing at %d", i)
		}
	}
}

// Property: blocked and reference products agree for random shapes.
func TestBlockedMatMulProperty(t *testing.T) {
	f := func(seed int64, n8, b8 uint8) bool {
		n := 1 + int(n8%12)
		bs := 1 + int(b8)%n
		rng := rand.New(rand.NewSource(seed))
		a := NewDenseRandom(n, n, rng)
		b := NewDenseRandom(n, n, rng)
		var c opcount.Counter
		got, err := BlockedMatMul(MatMulSpec{N: n, Block: bs}, a, b, &c)
		if err != nil {
			return false
		}
		return got.MaxAbsDiff(a.MulRef(b)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: total flops are decomposition-invariant (2N³ for any block size)
// while reads strictly shrink as the block grows.
func TestMatMulWorkInvariantProperty(t *testing.T) {
	f := func(b8 uint8) bool {
		n := 60
		bs := 1 + int(b8%60)
		tot, err := CountBlockedMatMul(MatMulSpec{N: n, Block: bs})
		if err != nil {
			return false
		}
		nn := uint64(n)
		return tot.Ops == 2*nn*nn*nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCountBlockedMatMulMatchesBlockWalk: the closed form equals the
// per-block walk it replaced, kept below verbatim, with == on every field:
// every N ≤ 40 at every block, ragged sizes, and sizes whose 2N³ wraps
// uint64 (the walk wraps the same way).
func TestCountBlockedMatMulMatchesBlockWalk(t *testing.T) {
	var specs []MatMulSpec
	for n := 1; n <= 40; n++ {
		for bs := 1; bs <= n; bs++ {
			specs = append(specs, MatMulSpec{N: n, Block: bs})
		}
	}
	specs = append(specs,
		MatMulSpec{N: 1000, Block: 31},
		MatMulSpec{N: 2048, Block: 45},
		MatMulSpec{N: 1 << 22, Block: 1 << 20},           // 2N³ = 2^67
		MatMulSpec{N: 3_000_000_001, Block: 999_999_999}, // ragged, wraps
		MatMulSpec{N: 1<<62 + 3, Block: 1 << 61},
	)
	for _, spec := range specs {
		got, err := CountBlockedMatMul(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := walkBlockedMatMul(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v: closed form %+v, walk %+v", spec, got, want)
		}
	}
}

// walkBlockedMatMul is the parent's CountBlockedMatMul, kept verbatim as
// the reference for TestCountBlockedMatMulMatchesBlockWalk.
func walkBlockedMatMul(spec MatMulSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	n, bs := uint64(spec.N), spec.Block
	var t opcount.Totals
	for i0 := 0; i0 < spec.N; i0 += bs {
		rows := uint64(min(bs, spec.N-i0))
		for j0 := 0; j0 < spec.N; j0 += bs {
			cols := uint64(min(bs, spec.N-j0))
			t.Reads += n * (rows + cols)
			t.Ops += 2 * n * rows * cols
			t.Writes += rows * cols
		}
	}
	return t, nil
}
