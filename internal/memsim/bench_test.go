package memsim

import "testing"

func benchTrace(b *testing.B) Trace {
	b.Helper()
	trace, err := BlockedMatMulTrace(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

func BenchmarkSimulateLRU(b *testing.B) {
	trace := benchTrace(b)
	b.SetBytes(int64(len(trace.refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLRU(trace, 96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateOPT(b *testing.B) {
	trace := benchTrace(b)
	b.SetBytes(int64(len(trace.refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateOPT(trace, 96); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for _, kind := range []string{"naive", "blocked"} {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if kind == "naive" {
					_, err = NaiveMatMulTrace(32)
				} else {
					_, err = BlockedMatMulTrace(32, 8)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
