// Package array models the parallel architectures of paper §4: a collection
// of PEs viewed as one "new processing element" whose computation bandwidth
// is the sum of its cells' but whose external I/O bandwidth is set by the
// boundary cells alone. A 1-D linear array of p cells has p times the
// compute and the same host I/O as one cell (Fig. 3); a p×p mesh has p²
// times the compute and p times the I/O (Fig. 4).
//
// The package pairs these aggregate views with the kernels' block
// decompositions as macro-step streams and uses the machine package's
// double-buffered pipeline simulation to locate, empirically, the smallest
// local memory at which the array stops starving for I/O — reproducing the
// paper's per-PE memory growth laws as observations of a simulator rather
// than algebra.
//
// The simulator decides only the rungs that the paper's own balance test
// cannot rule out. A rung whose total compute time, from the kernel
// counter's exact totals, is below (1-tol)·(1-2⁻²⁰) of its total I/O time
// cannot reach compute utilization 1-tol in any run, so the search skips
// it; FindBalancedMemory states why that never changes its answer.
package array

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"balarch/internal/machine"
	"balarch/internal/model"
	"balarch/internal/opcount"
)

// LinearArray is p linearly connected cells (paper Fig. 3). Only the two
// boundary cells communicate with the outside world, so the aggregate I/O
// bandwidth equals one cell's regardless of p.
type LinearArray struct {
	// P is the number of cells.
	P int
	// Cell describes one cell; Cell.M is the per-cell local memory.
	Cell model.PE
}

// Validate checks the array parameters.
func (a LinearArray) Validate() error {
	if a.P < 1 {
		return fmt.Errorf("array: linear array size %d must be ≥ 1", a.P)
	}
	return a.Cell.Validate()
}

// Aggregate returns the §4 "new processing element" view: C scales with p,
// IO does not, memory is the union of the cells'.
func (a LinearArray) Aggregate() model.PE {
	return model.PE{
		C:  float64(a.P) * a.Cell.C,
		IO: a.Cell.IO,
		M:  float64(a.P) * a.Cell.M,
	}
}

// Rates returns the aggregate bandwidths for pipeline simulation.
func (a LinearArray) Rates() machine.Rates {
	agg := a.Aggregate()
	return machine.Rates{ComputeOps: agg.C, IOWords: agg.IO}
}

// AlphaIncrease returns the factor by which C/IO grew relative to a single
// cell: p for the linear array (paper §4.1).
func (a LinearArray) AlphaIncrease() float64 { return float64(a.P) }

// HostAttachment selects where a mesh meets the outside world.
type HostAttachment int

const (
	// PerimeterHost is the paper's Fig. 4 configuration: boundary cells
	// on the perimeter carry host traffic, so aggregate I/O scales with
	// the mesh side p.
	PerimeterHost HostAttachment = iota
	// CornerHost is an ablation: a single corner cell carries all host
	// traffic, so aggregate I/O stays constant and the effective α
	// becomes p² instead of p — per-PE memory must then grow ∝ p² even
	// for matmul.
	CornerHost
)

// String names the attachment.
func (h HostAttachment) String() string {
	switch h {
	case PerimeterHost:
		return "perimeter"
	case CornerHost:
		return "corner"
	default:
		return fmt.Sprintf("HostAttachment(%d)", int(h))
	}
}

// MeshArray is a p×p mesh of cells (paper Fig. 4). With the default
// PerimeterHost attachment, perimeter cells carry host traffic, so
// aggregate I/O bandwidth scales with p while compute scales with p².
type MeshArray struct {
	// P is the mesh side; the array has P×P cells.
	P int
	// Cell describes one cell; Cell.M is the per-cell local memory.
	Cell model.PE
	// Host selects the host attachment; the zero value is the paper's
	// perimeter configuration.
	Host HostAttachment
}

// Validate checks the array parameters.
func (a MeshArray) Validate() error {
	if a.P < 1 {
		return fmt.Errorf("array: mesh side %d must be ≥ 1", a.P)
	}
	return a.Cell.Validate()
}

// Cells returns the number of PEs in the mesh.
func (a MeshArray) Cells() int { return a.P * a.P }

// Aggregate returns the §4 "new processing element" view of the mesh.
func (a MeshArray) Aggregate() model.PE {
	p := float64(a.P)
	io := p * a.Cell.IO
	if a.Host == CornerHost {
		io = a.Cell.IO
	}
	return model.PE{
		C:  p * p * a.Cell.C,
		IO: io,
		M:  p * p * a.Cell.M,
	}
}

// Rates returns the aggregate bandwidths for pipeline simulation.
func (a MeshArray) Rates() machine.Rates {
	agg := a.Aggregate()
	return machine.Rates{ComputeOps: agg.C, IOWords: agg.IO}
}

// AlphaIncrease returns the factor by which C/IO grew relative to a single
// cell: p²/p = p for the perimeter-fed mesh (paper §4.2), p² for the
// corner-fed ablation.
func (a MeshArray) AlphaIncrease() float64 {
	if a.Host == CornerHost {
		return float64(a.P) * float64(a.P)
	}
	return float64(a.P)
}

// BalancePoint is the outcome of a balance-memory search.
type BalancePoint struct {
	// PerPEMemory is the smallest per-cell memory (words) at which the
	// simulated array is no longer I/O bound.
	PerPEMemory int
	// AggregateMemory = PerPEMemory × number of cells.
	AggregateMemory int
	// Metrics is the simulation result at the balance point.
	Metrics machine.Metrics
}

// FindBalancedMemory simulates the workload's decomposition at increasing
// per-PE memory sizes from the ladder (ascending) and returns the first at
// which the double-buffered pipeline's compute utilization reaches 1-tol.
// cells is the number of PEs sharing the aggregate memory.
//
// A rung whose total compute time falls short of its total I/O time is
// decided without simulation, by the paper's balance test on the exact
// work totals from Workload.Totals: with tc = ops/C and tio =
// (reads+writes)/IO, the rung is skipped when tc < (1-tol)·(1-2⁻²⁰)·tio,
// tc and tio are finite and tio > 0. Skipping never changes the result:
//
//   - The pipeline's ComputeBusy and the channel's busy total are float64
//     folds of at most 2·MaxWorkloadSteps = 2²² per-step durations. Each
//     duration of a nonzero count is at least 2⁻¹⁰²⁴ (rates are finite),
//     so it is within 2⁻⁵⁰ relative of its exact value even when
//     subnormal, and each fold is within 2⁻³⁰ relative of the exact sum;
//     so are tc and tio.
//   - Makespan ≥ the channel's busy-until ≥ its busy total, because every
//     booking ends at max(earliest, busy-until) + d and rounding is
//     monotone. So the simulated utilization is at most ComputeBusy over
//     that busy total, which the 2⁻²⁰ margin keeps below 1-tol: the
//     simulation would find the rung I/O bound too.
//   - No step's counts exceed the rung's totals, so finite tc and tio
//     mean every step's durations are finite, and the simulation of a
//     skipped rung could not have failed.
//
// Steps is still called first, so its errors and caps come first; the
// returned rung is always simulated, so the BalancePoint and its Metrics
// are the simulation's, bit for bit, as is the error when no rung
// balances. A rung whose totals overflow uint64, and rates that fail
// Validate, leave every rung to the simulation.
func FindBalancedMemory(rates machine.Rates, cells int, w Workload, ladder []int, tol float64) (BalancePoint, error) {
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
	prune := rates.Validate() == nil
	for _, m := range ladder {
		if m > math.MaxInt/cells {
			return BalancePoint{}, fmt.Errorf("array: per-PE memory %d × %d cells overflows int", m, cells)
		}
		steps, err := w.Steps(m * cells)
		if err != nil {
			return BalancePoint{}, fmt.Errorf("array: %s at per-PE memory %d: %w", w.Name(), m, err)
		}
		if prune {
			// A Totals error (work past uint64) leaves the rung to
			// the simulation.
			if work, err := w.Totals(m * cells); err == nil && starved(rates, work, tol) {
				continue
			}
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

// starved reports whether work's total compute time at valid rates is so
// far below its total I/O time that no run of it can reach compute
// utilization 1-tol; FindBalancedMemory gives the proof. The test is
// written tc/thr < tio so that no side of it can underflow.
func starved(rates machine.Rates, work opcount.Totals, tol float64) bool {
	words, carry := bits.Add64(work.Reads, work.Writes, 0)
	if carry != 0 {
		return false
	}
	tc := float64(work.Ops) / rates.ComputeOps
	tio := float64(words) / rates.IOWords
	thr := (1 - tol) * (1 - 0x1p-20)
	// tc ≥ 0, so the strict test implies tio > 0, and a finite tio bounds
	// tc/thr, and so tc, to finite values too.
	return thr > 0 && tio <= math.MaxFloat64 && tc/thr < tio
}

// Simulate runs a step stream through the double-buffered pipeline as it
// is generated, so no step list is held.
func Simulate(rates machine.Rates, steps iter.Seq[machine.Step]) (machine.Metrics, error) {
	p, err := machine.NewPipeline(rates, 2)
	if err != nil {
		return machine.Metrics{}, err
	}
	for st := range steps {
		if err := p.Push(st); err != nil {
			return machine.Metrics{}, err
		}
	}
	return p.Metrics(), nil
}
