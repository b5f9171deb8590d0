package kernels

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"balarch/internal/opcount"
)

// The FFT kernels follow the paper's word convention abstractly: one data
// element (here one complex sample) is one word, and one radix-2 butterfly
// costs butterflyOps arithmetic operations (4 real multiplies and 6 real
// adds for the complex multiply-add pair). Only the Θ-shape of the ratio
// matters to the paper's argument; the constants are fixed here so the
// measured ratio per full pass is exactly (butterflyOps/4)·log₂M.
const butterflyOps = 10

// FFTSpec describes the §3.4 / Fig. 2 decomposition of an N-point FFT into
// subcomputation blocks of Block points: the log₂N butterfly stages are
// executed in passes of log₂Block stages; within a pass each block is loaded
// into local memory, transformed entirely locally, and stored; between
// passes the blocks are reassembled from strided positions (the "shuffle" of
// Fig. 2b).
type FFTSpec struct {
	// N is the transform size; must be a power of two ≥ 2.
	N int
	// Block is the subcomputation size M; must be a power of two in [2, N].
	Block int
}

// Validate checks the spec's invariants.
func (s FFTSpec) Validate() error {
	if s.N < 2 || bits.OnesCount(uint(s.N)) != 1 {
		return fmt.Errorf("kernels: FFT N=%d must be a power of two ≥ 2", s.N)
	}
	if s.Block < 2 || bits.OnesCount(uint(s.Block)) != 1 || s.Block > s.N {
		return fmt.Errorf("kernels: FFT block=%d must be a power of two in [2, N=%d]", s.Block, s.N)
	}
	return nil
}

// Memory returns the local memory footprint in words (one block).
func (s FFTSpec) Memory() int { return s.Block }

// Passes returns the number of block passes: ⌈log₂N / log₂Block⌉.
func (s FFTSpec) Passes() int {
	total := bits.TrailingZeros(uint(s.N))
	per := bits.TrailingZeros(uint(s.Block))
	return (total + per - 1) / per
}

// BitReverse permutes x into bit-reversed index order in place, the input
// ordering of the decimation-in-time FFT.
func BitReverse(x []complex128) {
	n := len(x)
	shift := bits.UintSize - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// FFTInPlace computes the forward DFT of x (length a power of two) with the
// iterative radix-2 decimation-in-time algorithm, the reference against
// which BlockedFFT is validated bit-for-bit.
func FFTInPlace(x []complex128) error {
	n := len(x)
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return fmt.Errorf("kernels: FFT length %d must be a power of two ≥ 2", n)
	}
	BitReverse(x)
	stages := bits.TrailingZeros(uint(n))
	for s := 0; s < stages; s++ {
		half := 1 << s
		for base := 0; base < n; base += 2 * half {
			for k := 0; k < half; k++ {
				butterfly(x, base+k, base+k+half, twiddle(s, base+k))
			}
		}
	}
	return nil
}

// twiddle returns the stage-s twiddle factor for the butterfly whose first
// element sits at global (bit-reversed-input) index i:
// W = exp(-2πi · (i mod 2^s) / 2^(s+1)).
func twiddle(s, i int) complex128 {
	mod := i & ((1 << s) - 1)
	angle := -2 * math.Pi * float64(mod) / float64(int(2)<<s)
	return cmplx.Exp(complex(0, angle))
}

// butterfly applies the radix-2 DIT butterfly to x[a], x[b] with twiddle w.
func butterfly(x []complex128, a, b int, w complex128) {
	t := w * x[b]
	x[a], x[b] = x[a]+t, x[a]-t
}

// IFFTInPlace computes the inverse DFT of x via the conjugate identity
// IDFT(x) = conj(DFT(conj(x)))/N, so the forward kernel (and therefore the
// blocked decomposition) is the only butterfly code path.
func IFFTInPlace(x []complex128) error {
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
	if err := FFTInPlace(x); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i, v := range x {
		x[i] = cmplx.Conj(v) * scale
	}
	return nil
}

// NaiveDFT computes the DFT by the O(N²) definition, for numeric validation.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k*t%n) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// BlockedFFT computes the forward DFT of x with the Fig. 2 block
// decomposition, recording exact arithmetic and I/O word counts: every pass
// reads each point into a block, performs that pass's butterfly stages
// locally, and writes each point back. The result is bit-identical to
// FFTInPlace because butterflies within a stage are independent.
func BlockedFFT(spec FFTSpec, x []complex128, c *opcount.Counter) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(x) != spec.N {
		return fmt.Errorf("kernels: input length %d does not match spec N=%d", len(x), spec.N)
	}
	BitReverse(x)
	totalStages := bits.TrailingZeros(uint(spec.N))
	perPass := bits.TrailingZeros(uint(spec.Block))
	buf := make([]complex128, spec.Block)

	for stageLo := 0; stageLo < totalStages; stageLo += perPass {
		lp := min(perPass, totalStages-stageLo) // stages this pass
		groupSize := 1 << lp
		stride := 1 << stageLo
		for g := 0; g < spec.N/groupSize; g++ {
			// Base index: bits below stageLo come from g's low
			// part, bits above stageLo+lp from g's high part; the
			// pass's own bit range is zero.
			base := g&(stride-1) | (g >> stageLo << (stageLo + lp))
			// Gather the block from strided positions (the
			// shuffle of Fig. 2b) into local memory.
			for t := 0; t < groupSize; t++ {
				buf[t] = x[base+t*stride]
			}
			c.Read(groupSize)
			// All butterfly stages of this pass, entirely local.
			for sl := 0; sl < lp; sl++ {
				sg := stageLo + sl
				half := 1 << sl
				for bb := 0; bb < groupSize; bb += 2 * half {
					for k := 0; k < half; k++ {
						gidx := base + (bb+k)*stride
						butterfly(buf, bb+k, bb+k+half, twiddle(sg, gidx))
						c.Ops(butterflyOps)
					}
				}
			}
			// Scatter the block back.
			for t := 0; t < groupSize; t++ {
				x[base+t*stride] = buf[t]
			}
			c.Write(groupSize)
		}
	}
	return nil
}

// CountBlockedFFT returns the counts BlockedFFT would record, in O(passes)
// time: per pass every point is read and written once and N/2 butterflies
// execute per stage.
func CountBlockedFFT(spec FFTSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	totalStages := bits.TrailingZeros(uint(spec.N))
	perPass := bits.TrailingZeros(uint(spec.Block))
	n := uint64(spec.N)
	var t opcount.Totals
	for stageLo := 0; stageLo < totalStages; stageLo += perPass {
		lp := uint64(min(perPass, totalStages-stageLo))
		t.Reads += n
		t.Writes += n
		t.Ops += n / 2 * lp * butterflyOps
	}
	return t, nil
}

// FFTRatioSweep measures the blocked FFT ratio across block sizes at fixed N
// for the E5 experiment. Choosing N with log₂N divisible by log₂Block makes
// every pass full, matching the paper's asymptotic count exactly. Points
// run in parallel via Sweep.
func FFTRatioSweep(ctx context.Context, n int, blocks []int) ([]RatioPoint, error) {
	return countSweep(ctx, blocks, func(bs int) FFTSpec { return FFTSpec{N: n, Block: bs} }, CountBlockedFFT)
}

// FFTDecomposition describes the block structure of one pass for the Fig. 2
// rendering: which global indices each subcomputation block gathers.
type FFTDecomposition struct {
	Spec   FFTSpec
	Passes []FFTPass
}

// FFTPass is one vertical slice of Fig. 2b: a set of blocks, each listing
// the global indices it transforms.
type FFTPass struct {
	StageLo, StageHi int // global butterfly stages [lo, hi)
	Blocks           [][]int
}

// DecomposeFFT computes the block structure BlockedFFT executes, for
// diagram rendering and structural tests.
func DecomposeFFT(spec FFTSpec) (FFTDecomposition, error) {
	if err := spec.Validate(); err != nil {
		return FFTDecomposition{}, err
	}
	dec := FFTDecomposition{Spec: spec}
	totalStages := bits.TrailingZeros(uint(spec.N))
	perPass := bits.TrailingZeros(uint(spec.Block))
	for stageLo := 0; stageLo < totalStages; stageLo += perPass {
		lp := min(perPass, totalStages-stageLo)
		groupSize := 1 << lp
		stride := 1 << stageLo
		pass := FFTPass{StageLo: stageLo, StageHi: stageLo + lp}
		for g := 0; g < spec.N/groupSize; g++ {
			base := g&(stride-1) | (g >> stageLo << (stageLo + lp))
			idx := make([]int, groupSize)
			for t := 0; t < groupSize; t++ {
				idx[t] = base + t*stride
			}
			pass.Blocks = append(pass.Blocks, idx)
		}
		dec.Passes = append(dec.Passes, pass)
	}
	return dec, nil
}
