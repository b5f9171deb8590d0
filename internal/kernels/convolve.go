package kernels

import (
	"context"
	"fmt"

	"balarch/internal/opcount"
)

// ConvolveSpec describes a k-tap FIR convolution over N samples — an
// extension in the spirit of the paper's §5 ("the methodology ... can be
// used for many other computations"). The kernel streams the signal once
// past a resident tap vector and a k-deep delay line, so each input word is
// used exactly k times:
//
//	Ccomp = 2kN, Cio = 2N  ⇒  R(M) = k for every M ≥ 2k + O(1).
//
// The ratio is set by the operator (k), not the memory — a third family
// beside the paper's memory-elastic computations (§3.1–§3.5) and its
// memory-inelastic ones (§3.6): enlarging M beyond the operator's footprint
// buys nothing, but enlarging the operator rebalances without more memory
// than 2k words.
type ConvolveSpec struct {
	// N is the number of input samples.
	N int
	// Taps is the filter length k.
	Taps int
}

// Validate checks the spec's invariants.
func (s ConvolveSpec) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("kernels: convolve N=%d must be ≥ 1", s.N)
	}
	if s.Taps < 1 || s.Taps > s.N {
		return fmt.Errorf("kernels: convolve taps=%d must be in [1, N=%d]", s.Taps, s.N)
	}
	return nil
}

// Memory returns the local footprint in words: the tap vector plus the
// delay line.
func (s ConvolveSpec) Memory() int { return 2 * s.Taps }

// Convolve computes the valid-mode FIR response y[i] = Σ_j h[j]·x[i+j] for
// i ∈ [0, N-k], streaming x once and counting every word and flop. The taps
// are loaded once at the start (k reads).
func Convolve(spec ConvolveSpec, x, h []float64, c *opcount.Counter) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(x) != spec.N || len(h) != spec.Taps {
		return nil, fmt.Errorf("kernels: convolve operands must have lengths %d and %d", spec.N, spec.Taps)
	}
	k := spec.Taps
	c.Read(k) // tap vector, resident thereafter
	out := make([]float64, spec.N-k+1)
	delay := make([]float64, k) // circular delay line
	for i := 0; i < spec.N; i++ {
		delay[i%k] = x[i]
		c.Read(1)
		if i < k-1 {
			continue
		}
		var acc float64
		for j := 0; j < k; j++ {
			acc += h[j] * delay[(i-k+1+j)%k]
		}
		c.Ops(2 * k)
		out[i-k+1] = acc
		c.Write(1)
	}
	return out, nil
}

// CountConvolve returns the counts Convolve would record, in O(1) time.
func CountConvolve(spec ConvolveSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	n, k := uint64(spec.N), uint64(spec.Taps)
	outs := n - k + 1
	return opcount.Totals{
		Ops:    2 * k * outs,
		Reads:  k + n,
		Writes: outs,
	}, nil
}

// ConvolveRatioSweep measures the FIR ratio across *memory* sizes at fixed
// taps — the flat profile — or across tap counts at ample memory — the
// linear-in-k profile — depending on which slice the caller requests.
func ConvolveRatioSweep(ctx context.Context, n int, taps []int) ([]RatioPoint, error) {
	return countSweep(ctx, taps, func(k int) ConvolveSpec { return ConvolveSpec{N: n, Taps: k} }, CountConvolve)
}

// ConvolveRef is the O(N·k) reference used to validate Convolve.
func ConvolveRef(x, h []float64) []float64 {
	n, k := len(x), len(h)
	out := make([]float64, n-k+1)
	for i := range out {
		var acc float64
		for j := 0; j < k; j++ {
			acc += h[j] * x[i+j]
		}
		out[i] = acc
	}
	return out
}
