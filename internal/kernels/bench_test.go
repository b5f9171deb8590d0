package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"balarch/internal/opcount"
)

// Substrate micro-benchmarks: the real kernels (numeric throughput) and the
// count-only walkers (harness overhead at paper-scale N).

func BenchmarkBlockedMatMulRun(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := NewDenseRandom(n, n, rng)
			y := NewDenseRandom(n, n, rng)
			spec := MatMulSpec{N: n, Block: 16}
			b.SetBytes(int64(8 * 2 * n * n * n)) // flop bytes proxy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c opcount.Counter
				if _, err := BlockedMatMul(spec, x, y, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCountBlockedMatMul(b *testing.B) {
	spec := MatMulSpec{N: 32768, Block: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CountBlockedMatMul(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockedLURun(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := DiagonallyDominant(96, rng)
	spec := LUSpec{N: 96, Block: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c opcount.Counter
		if _, err := BlockedLU(spec, a, &c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelaxTiled2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := NewGridRandom(2, 128, rng)
	spec := GridSpec{Dim: 2, Size: 128, Tile: 16, Iters: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c opcount.Counter
		if _, err := RelaxTiled(spec, g, &c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockedFFTRun(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			x := randomComplexBench(n, rng)
			spec := FFTSpec{N: n, Block: 64}
			buf := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				var c opcount.Counter
				if err := BlockedFFT(spec, buf, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomComplexBench(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	return x
}

func BenchmarkExternalSort(b *testing.B) {
	for _, m := range []int{256, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := m * m
			rng := rand.New(rand.NewSource(5))
			input := make([]int64, n)
			for i := range input {
				input[i] = rng.Int63()
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c opcount.Counter
				if _, err := ExternalSort(SortSpec{N: n, M: m}, input, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
