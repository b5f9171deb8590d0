package machine

import (
	"cmp"
	"fmt"
	"math"
)

// Step is one macro-step of a decomposed computation: read InWords into
// local memory, perform Ops operations on them, write OutWords back. The
// kernels' Count functions produce exactly these triples per block.
type Step struct {
	InWords  uint64
	Ops      uint64
	OutWords uint64
}

// Rates binds the paper's two bandwidths: ComputeOps per second for the
// compute unit and IOWords per second for the I/O channel. For a processor
// array viewed as one "new processing element" (paper §4), ComputeOps is the
// aggregate p·C and IOWords the boundary bandwidth.
type Rates struct {
	ComputeOps float64
	IOWords    float64
}

// Validate checks the rates are physical.
func (r Rates) Validate() error {
	if !(r.ComputeOps > 0) || math.IsInf(r.ComputeOps, 0) {
		return fmt.Errorf("machine: compute rate %v must be positive and finite", r.ComputeOps)
	}
	if !(r.IOWords > 0) || math.IsInf(r.IOWords, 0) {
		return fmt.Errorf("machine: I/O rate %v must be positive and finite", r.IOWords)
	}
	return nil
}

// Metrics reports where a simulated run's time went.
type Metrics struct {
	// Makespan is the total virtual time of the run in seconds.
	Makespan float64
	// ComputeBusy is the time the compute unit spent computing.
	ComputeBusy float64
	// IOBusy is the time the I/O channel spent transferring.
	IOBusy float64
	// Steps is the number of macro-steps executed.
	Steps int
}

// ComputeUtilization is ComputeBusy/Makespan: 1.0 means the compute unit
// never waited — the PE is compute bound or perfectly balanced.
func (m Metrics) ComputeUtilization() float64 {
	if m.Makespan == 0 {
		return 0
	}
	return m.ComputeBusy / m.Makespan
}

// IOUtilization is IOBusy/Makespan.
func (m Metrics) IOUtilization() float64 {
	if m.Makespan == 0 {
		return 0
	}
	return m.IOBusy / m.Makespan
}

// IOBound reports whether the compute unit spent more than tol of the run
// waiting: the signature of an imbalanced PE (paper §1: "it will have to
// wait for I/O").
func (m Metrics) IOBound(tol float64) bool {
	return m.ComputeUtilization() < 1-tol
}

// RunPipeline executes the macro-steps on a PE with the given rates under
// double buffering: step k's input transfer may overlap step k-1's compute,
// and output transfers share the I/O channel with input transfers (one
// channel; transfers are served FIFO by arrival time). Dependencies per
// step k:
//
//	input(k)   becomes eligible when buffer k-2 retires (two buffers)
//	compute(k) starts after input(k) completes and compute(k-1) finishes
//	output(k)  becomes eligible when compute(k) finishes
//
// The run processes input-done and compute-done events in time order so
// channel arbitration happens in arrival order, letting input(k+1) slip in
// front of output(k) when it became eligible earlier — exactly how a
// double-buffered DMA engine behaves. A step whose phase duration is not
// finite is an error.
func RunPipeline(rates Rates, steps []Step) (Metrics, error) {
	return RunPipelineBuffered(rates, steps, 2)
}

// RunPipelineBuffered generalizes RunPipeline to any buffer count ≥ 1: step
// k's input becomes eligible when step k-buffers has finished computing.
// One buffer serializes input against the previous compute (≈ the serial
// model); two buffers give classic double buffering; more buffers only help
// when transfer-time variance would otherwise stall the channel, so for the
// uniform macro-steps of the paper's decompositions the curve saturates at
// two — the X2 ablation measures exactly that.
func RunPipelineBuffered(rates Rates, steps []Step, buffers int) (Metrics, error) {
	if err := rates.Validate(); err != nil {
		return Metrics{}, err
	}
	if buffers < 1 {
		return Metrics{}, fmt.Errorf("machine: buffer count %d must be ≥ 1", buffers)
	}
	metrics := Metrics{Steps: len(steps)}
	// More buffers than steps change nothing, and the clamp keeps
	// k+buffers from overflowing.
	buffers = min(buffers, len(steps))
	var compute, channel unit
	// At most one event per step holding a buffer is pending.
	h := events{q: make([]event, 0, buffers)}
	var err error
	// reserve books u from now for step k's phase of n units at rate; the
	// first non-finite duration stops the run.
	reserve := func(u *unit, n uint64, rate float64, k int, phase string) float64 {
		d, derr := phaseTime(n, rate, k, phase)
		if err == nil {
			err = derr
		}
		return u.reserve(h.now, d)
	}
	for k := range buffers {
		h.at(reserve(&channel, steps[k].InWords, rates.IOWords, k, "input"), inputDone, k)
	}
	for len(h.q) > 0 && err == nil {
		e := h.pop()
		if e.kind == inputDone {
			// Compute after our input (now) and the previous compute.
			h.at(reserve(&compute, steps[e.k].Ops, rates.ComputeOps, e.k, "compute"), computeDone, e.k)
			continue
		}
		// Output on the shared channel; our buffer frees for step
		// k+buffers.
		reserve(&channel, steps[e.k].OutWords, rates.IOWords, e.k, "output")
		if k := e.k + buffers; k < len(steps) {
			h.at(reserve(&channel, steps[k].InWords, rates.IOWords, k, "input"), inputDone, k)
		}
	}
	if err != nil {
		return Metrics{}, err
	}

	// The run ends when both units drain.
	metrics.Makespan = math.Max(compute.busyUntil, channel.busyUntil)
	metrics.ComputeBusy = compute.busyTotal
	metrics.IOBusy = channel.busyTotal
	return metrics, nil
}

// RunSerial executes the steps with no overlap: each step reads, computes,
// and writes before the next begins — the execution model of the paper's
// balance definition, where a balanced PE splits its time equally. A step
// whose phase duration is not finite is an error.
func RunSerial(rates Rates, steps []Step) (Metrics, error) {
	if err := rates.Validate(); err != nil {
		return Metrics{}, err
	}
	m := Metrics{Steps: len(steps)}
	for k, st := range steps {
		tIn, err1 := phaseTime(st.InWords, rates.IOWords, k, "input")
		tC, err2 := phaseTime(st.Ops, rates.ComputeOps, k, "compute")
		tOut, err3 := phaseTime(st.OutWords, rates.IOWords, k, "output")
		if err := cmp.Or(err1, err2, err3); err != nil {
			return Metrics{}, err
		}
		m.IOBusy += tIn + tOut
		m.ComputeBusy += tC
		m.Makespan += tIn + tC + tOut
	}
	return m, nil
}

// TotalWork sums the step triples, for cross-checking against counters.
func TotalWork(steps []Step) (inWords, ops, outWords uint64) {
	for _, st := range steps {
		inWords += st.InWords
		ops += st.Ops
		outWords += st.OutWords
	}
	return inWords, ops, outWords
}
