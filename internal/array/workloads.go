package array

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"balarch/internal/kernels"
	"balarch/internal/machine"
	"balarch/internal/opcount"
)

// MaxWorkloadSteps caps the macro-step streams so degenerate parameter
// choices (huge problems at tiny memories) fail loudly instead of running
// without bound. Streams are generated on demand, so the cap bounds
// simulation time, not memory.
const MaxWorkloadSteps = 1 << 21

// Workload turns an aggregate local memory size into the macro-step stream
// its block decomposition executes, for pipeline simulation.
type Workload interface {
	// Name identifies the workload in reports and errors.
	Name() string
	// Steps returns the macro-steps executed when the aggregate local
	// memory holds mTotal words, generated as the sequence is ranged
	// over. Parameters and the MaxWorkloadSteps cap are checked before
	// the sequence is returned.
	Steps(mTotal int) (iter.Seq[machine.Step], error)
	// Totals returns the exact sum of the steps Steps(mTotal) yields, from
	// the kernel counter of the same decomposition, without generating
	// them. A total that does not fit in uint64 is an error.
	Totals(mTotal int) (opcount.Totals, error)
	// Ratio is the asymptotic Ccomp/Cio at aggregate memory m, used to
	// cross-check simulated balance points against the analytic model.
	Ratio(m float64) float64
}

// MatMulWorkload is the §3.1 blocked product of two N×N matrices: block
// side b = ⌊√m⌋, (N/b)² macro-steps, each streaming 2Nb words in, computing
// 2Nb² flops, and writing b² words out.
type MatMulWorkload struct {
	N int
}

// Name implements Workload.
func (w MatMulWorkload) Name() string { return fmt.Sprintf("matmul N=%d", w.N) }

// Ratio implements Workload.
func (w MatMulWorkload) Ratio(m float64) float64 { return math.Sqrt(m) }

// spec is the kernel decomposition at aggregate memory mTotal: the
// block side b = ⌊√mTotal⌋, at most N.
func (w MatMulWorkload) spec(mTotal int) (kernels.MatMulSpec, error) {
	if w.N < 1 {
		return kernels.MatMulSpec{}, fmt.Errorf("array: matmul N=%d must be ≥ 1", w.N)
	}
	b := int(math.Sqrt(float64(mTotal)))
	if b < 1 {
		return kernels.MatMulSpec{}, fmt.Errorf("array: memory %d too small for any block", mTotal)
	}
	return kernels.MatMulSpec{N: w.N, Block: min(b, w.N)}, nil
}

// Totals implements Workload. 2N³ bounds every total.
func (w MatMulWorkload) Totals(mTotal int) (opcount.Totals, error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return opcount.Totals{}, err
	}
	n := uint64(w.N)
	if _, ok := product(2, n, n, n); !ok {
		return opcount.Totals{}, overflowError(w, mTotal)
	}
	return kernels.CountBlockedMatMul(spec)
}

// Steps implements Workload.
func (w MatMulWorkload) Steps(mTotal int) (iter.Seq[machine.Step], error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return nil, err
	}
	b := spec.Block
	nb := (w.N + b - 1) / b
	if nb > MaxWorkloadSteps/nb { // nb*nb may overflow
		return nil, fmt.Errorf("array: matmul would need %d×%d steps (> %d)", nb, nb, MaxWorkloadSteps)
	}
	n := uint64(w.N)
	return func(yield func(machine.Step) bool) {
		for i0 := 0; i0 < w.N; i0 += b {
			rows := uint64(min(b, w.N-i0))
			for j0 := 0; j0 < w.N; j0 += b {
				cols := uint64(min(b, w.N-j0))
				if !yield(machine.Step{
					InWords:  n * (rows + cols),
					Ops:      2 * n * rows * cols,
					OutWords: rows * cols,
				}) {
					return
				}
			}
		}
	}, nil
}

// GridWorkload is the §3.3 d-dimensional relaxation: tiles of side
// s = ⌊m^(1/d)⌋; per iteration each tile exchanges its faces and updates its
// points. Boundary effects are included exactly as in the kernels package.
type GridWorkload struct {
	Dim   int
	Size  int
	Iters int
}

// Name implements Workload.
func (w GridWorkload) Name() string {
	return fmt.Sprintf("grid d=%d N=%d iters=%d", w.Dim, w.Size, w.Iters)
}

// Ratio implements Workload.
func (w GridWorkload) Ratio(m float64) float64 {
	d := float64(w.Dim)
	return (4*d + 1) / (4 * d) * math.Pow(m, 1/d)
}

// spec is the kernel decomposition at aggregate memory mTotal: the tile
// side s = ⌊mTotal^(1/d)⌋, at most N.
func (w GridWorkload) spec(mTotal int) (kernels.GridSpec, error) {
	if w.Dim < 1 || w.Size < 3 || w.Iters < 1 {
		return kernels.GridSpec{}, fmt.Errorf("array: invalid grid workload %+v", w)
	}
	s := int(math.Floor(math.Pow(float64(mTotal), 1/float64(w.Dim))))
	if s < 1 {
		return kernels.GridSpec{}, fmt.Errorf("array: memory %d too small for any tile", mTotal)
	}
	return kernels.GridSpec{Dim: w.Dim, Size: w.Size, Tile: min(s, w.Size), Iters: w.Iters}, nil
}

// Totals implements Workload. (4d+1)·N^d·iters bounds every total: a tile
// updates at most its points and exchanges at most 2d faces.
func (w GridWorkload) Totals(mTotal int) (opcount.Totals, error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return opcount.Totals{}, err
	}
	bound, ok := product(uint64(4*w.Dim+1), uint64(w.Iters))
	for d := 0; ok && d < w.Dim; d++ {
		bound, ok = product(bound, uint64(w.Size))
	}
	if !ok {
		return opcount.Totals{}, overflowError(w, mTotal)
	}
	return kernels.CountRelaxTiled(spec)
}

// Steps implements Workload.
func (w GridWorkload) Steps(mTotal int) (iter.Seq[machine.Step], error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return nil, err
	}
	s := spec.Tile
	tilesPerDim := (w.Size + s - 1) / s
	nTiles := 1
	for d := 0; d < w.Dim; d++ {
		nTiles *= tilesPerDim
		if nTiles > MaxWorkloadSteps {
			return nil, fmt.Errorf("array: grid would need > %d tiles", MaxWorkloadSteps)
		}
	}
	if nTiles > MaxWorkloadSteps/w.Iters { // Iters*nTiles may overflow
		return nil, fmt.Errorf("array: grid would need %d×%d steps (> %d)", w.Iters, nTiles, MaxWorkloadSteps)
	}
	return func(yield func(machine.Step) bool) {
		tileLo := make([]int, w.Dim)
		for range w.Iters {
			// Tiles in row-major order of their low corners: the
			// last dimension varies fastest.
			for {
				if !yield(w.tileStep(tileLo, s)) {
					return
				}
				k := w.Dim - 1
				for ; k >= 0; k-- {
					if tileLo[k] += s; tileLo[k] < w.Size {
						break
					}
					tileLo[k] = 0
				}
				if k < 0 {
					break
				}
			}
		}
	}, nil
}

// tileStep is one iteration's macro-step for the tile of side s with low
// corner tileLo: it exchanges the faces it shares with neighbouring tiles
// and updates its points that are interior to the grid.
func (w GridWorkload) tileStep(tileLo []int, s int) machine.Step {
	ext := func(lo int) int { return min(s, w.Size-lo) }
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
	return machine.Step{
		InWords:  halo / 2,
		Ops:      interior * uint64(4*w.Dim+1),
		OutWords: halo / 2,
	}
}

// FFTWorkload is the §3.4 blocked transform of N points: block size the
// largest power of two ≤ m, ⌈log₂N/log₂B⌉ passes of N/B block steps.
type FFTWorkload struct {
	N int
}

// Name implements Workload.
func (w FFTWorkload) Name() string { return fmt.Sprintf("fft N=%d", w.N) }

// Ratio implements Workload.
func (w FFTWorkload) Ratio(m float64) float64 { return 2.5 * math.Log2(m) }

// spec is the kernel decomposition at aggregate memory mTotal: the block
// is the largest power of two ≤ min(mTotal, N).
func (w FFTWorkload) spec(mTotal int) (kernels.FFTSpec, error) {
	if w.N < 2 || w.N&(w.N-1) != 0 {
		return kernels.FFTSpec{}, fmt.Errorf("array: FFT N=%d must be a power of two ≥ 2", w.N)
	}
	b := 2
	for b*2 <= mTotal && b*2 <= w.N {
		b *= 2
	}
	if b > mTotal {
		return kernels.FFTSpec{}, fmt.Errorf("array: memory %d below the minimum block of 2", mTotal)
	}
	return kernels.FFTSpec{N: w.N, Block: b}, nil
}

// Totals implements Workload. 5·N·log₂N, the flops, bounds every total.
func (w FFTWorkload) Totals(mTotal int) (opcount.Totals, error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return opcount.Totals{}, err
	}
	if _, ok := product(5, uint64(w.N), uint64(bits.TrailingZeros(uint(w.N)))); !ok {
		return opcount.Totals{}, overflowError(w, mTotal)
	}
	return kernels.CountBlockedFFT(spec)
}

// Steps implements Workload.
func (w FFTWorkload) Steps(mTotal int) (iter.Seq[machine.Step], error) {
	spec, err := w.spec(mTotal)
	if err != nil {
		return nil, err
	}
	totalStages := bits.TrailingZeros(uint(w.N))
	perPass := bits.TrailingZeros(uint(spec.Block))
	// Each pass runs lp = min(perPass, stages left) butterfly stages on
	// groups of 2^lp points.
	steps := 0
	for stageLo := 0; stageLo < totalStages; stageLo += perPass {
		if steps += w.N >> min(perPass, totalStages-stageLo); steps > MaxWorkloadSteps {
			return nil, fmt.Errorf("array: FFT would need > %d steps", MaxWorkloadSteps)
		}
	}
	return func(yield func(machine.Step) bool) {
		for stageLo := 0; stageLo < totalStages; stageLo += perPass {
			lp := min(perPass, totalStages-stageLo)
			groupSize := uint64(1) << lp
			for range w.N / int(groupSize) {
				if !yield(machine.Step{
					InWords:  groupSize,
					Ops:      groupSize / 2 * uint64(lp) * 10,
					OutWords: groupSize,
				}) {
					return
				}
			}
		}
	}, nil
}

// product returns the product of the factors and whether it fits in
// uint64.
func product(factors ...uint64) (uint64, bool) {
	p := uint64(1)
	for _, f := range factors {
		hi, lo := bits.Mul64(p, f)
		if hi != 0 {
			return 0, false
		}
		p = lo
	}
	return p, true
}

func overflowError(w Workload, mTotal int) error {
	return fmt.Errorf("array: %s at memory %d: total work overflows uint64", w.Name(), mTotal)
}
