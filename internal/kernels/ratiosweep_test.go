package kernels

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"balarch/internal/engine"
	"balarch/internal/opcount"
)

// TestRatioSweepsMatchCounts pins every *RatioSweep helper to its own
// kernel: point i must be exactly {spec.Memory(), totals} for params[i],
// where totals is the closed-form Count* result (for sort, the counter of
// a real ExternalSort of that point's seeded input), at one worker and at
// eight.
func TestRatioSweepsMatchCounts(t *testing.T) {
	point := func(mem int, tot opcount.Totals, err error) (RatioPoint, error) {
		return RatioPoint{Memory: mem, Totals: tot}, err
	}
	const sortSeed = 31
	cases := []struct {
		name   string
		params []int
		sweep  func(ctx context.Context, params []int) ([]RatioPoint, error)
		want   func(p int) (RatioPoint, error)
	}{
		{"matmul", []int{1, 4, 7, 16, 64},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return MatMulRatioSweep(ctx, 200, ps) },
			func(p int) (RatioPoint, error) {
				s := MatMulSpec{N: 200, Block: p}
				tot, err := CountBlockedMatMul(s)
				return point(s.Memory(), tot, err)
			}},
		{"lu", []int{1, 3, 8, 32, 96},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return LURatioSweep(ctx, 96, ps) },
			func(p int) (RatioPoint, error) {
				s := LUSpec{N: 96, Block: p}
				tot, err := CountBlockedLU(s)
				return point(s.Memory(), tot, err)
			}},
		{"fft", []int{2, 4, 16, 64, 1024},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return FFTRatioSweep(ctx, 1024, ps) },
			func(p int) (RatioPoint, error) {
				s := FFTSpec{N: 1024, Block: p}
				tot, err := CountBlockedFFT(s)
				return point(s.Memory(), tot, err)
			}},
		{"strassen", []int{1, 4, 16, 64},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return StrassenRatioSweep(ctx, 256, ps) },
			func(p int) (RatioPoint, error) {
				s := StrassenSpec{N: 256, Leaf: p}
				tot, err := CountCAStrassen(s)
				return point(s.Memory(), tot, err)
			}},
		{"matvec", []int{1, 5, 64, 300},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return MatVecRatioSweep(ctx, 300, ps) },
			func(p int) (RatioPoint, error) {
				s := MatVecSpec{N: 300, Chunk: p}
				tot, err := CountMatVec(s)
				return point(s.Memory(), tot, err)
			}},
		{"trisolve", []int{1, 5, 64, 300},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return TriSolveRatioSweep(ctx, 300, ps) },
			func(p int) (RatioPoint, error) {
				s := TriSolveSpec{N: 300, Chunk: p}
				tot, err := CountTriSolve(s)
				return point(s.Memory(), tot, err)
			}},
		{"convolve", []int{1, 2, 9, 64},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return ConvolveRatioSweep(ctx, 1000, ps) },
			func(p int) (RatioPoint, error) {
				s := ConvolveSpec{N: 1000, Taps: p}
				tot, err := CountConvolve(s)
				return point(s.Memory(), tot, err)
			}},
		{"spmv", []int{1, 16, 100, 512},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return SpMVRatioSweep(ctx, 512, 6, ps) },
			func(p int) (RatioPoint, error) {
				s := SpMVSpec{N: 512, Chunk: p}
				tot, err := CountSpMV(s, 512*6)
				return point(s.Memory(), tot, err)
			}},
		{"grid", []int{1, 3, 8, 20},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return GridRatioSweep(ctx, 2, 40, 3, ps) },
			func(p int) (RatioPoint, error) {
				s := GridSpec{Dim: 2, Size: 40, Tile: p, Iters: 3}
				tot, err := CountRelaxTiled(s)
				return point(s.Memory(), tot, err)
			}},
		{"sort", []int{2, 5, 16, 32},
			func(ctx context.Context, ps []int) ([]RatioPoint, error) { return SortRatioSweep(ctx, ps, sortSeed) },
			func(m int) (RatioPoint, error) {
				s := SortSpec{N: m * m, M: m}
				rng := rand.New(rand.NewSource(sortSeed))
				input := make([]int64, s.N)
				for i := range input {
					input[i] = rng.Int63()
				}
				var c opcount.Counter
				_, err := ExternalSort(s, input, &c)
				return point(s.Memory(), c.Snapshot(), err)
			}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/parallel%d", tc.name, par), func(t *testing.T) {
				pts, err := tc.sweep(engine.WithParallelism(context.Background(), par), tc.params)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) != len(tc.params) {
					t.Fatalf("%d points for %d params", len(pts), len(tc.params))
				}
				for i, p := range tc.params {
					want, err := tc.want(p)
					if err != nil {
						t.Fatalf("param %d: %v", p, err)
					}
					if pts[i] != want {
						t.Errorf("param %d: point = %+v, want %+v", p, pts[i], want)
					}
				}
			})
		}
	}
}
