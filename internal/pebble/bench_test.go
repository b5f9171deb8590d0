package pebble

import (
	"fmt"
	"testing"
)

func BenchmarkGreedyFFT(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := FFTDAG(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched, err := GreedySchedule(d, 18)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Execute(d, 18, sched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBlockedFFTSchedule(b *testing.B) {
	d, err := FFTDAG(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, s, err := BlockedFFTSchedule(1024, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Execute(d, s, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalSearchFFT4(b *testing.B) {
	d, err := FFTDAG(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalIO(d, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTDAG builds E11's largest graph: 53,248 vertices and 98,304
// edges in CSR form, with no per-vertex slice or label.
func BenchmarkFFTDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FFTDAG(4096); err != nil {
			b.Fatal(err)
		}
	}
}
