// Package machine simulates the paper's processing element (Fig. 1): a
// compute unit with bandwidth C operations per second, an I/O channel with
// bandwidth IO words per second, and a local memory that holds the working
// set between transfers. Computations are presented as streams of
// macro-steps (read a block, compute on it, write a block); a Pipeline runs
// them double-buffered — I/O of step k+1 overlaps the computation of step k
// — and reports where the time went, so balance is an observed property of
// a run rather than a formula.
//
// The pipeline needs no event queue. Each unit serves its bookings back to
// back, so its busy-until and busy-total are a fold over its own bookings,
// each ending at max(earliest, busy-until) + duration. With B buffers only
// two kinds of booking happen:
//
//   - The channel reads the first B inputs from t = 0. After that it is
//     booked only when a compute finishes, and computes finish in step
//     order, so the channel serves in(0..B-1), then out(j) and in(j+B) for
//     j = 0, 1, …, each no earlier than computeDone(j).
//   - The compute unit serves step k in step order, no earlier than
//     inputDone(k).
//
// A ring of B pending steps — input booked, compute not yet — is all the
// state, so a run of any length holds one ring and two units.
package machine

import (
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

// unit is a serially reusable resource (the compute unit or the I/O
// channel): bookings are served back to back, and busy time accumulates
// for utilization accounting.
type unit struct {
	busyUntil, busyTotal float64
}

// reserve books the unit for d seconds starting no earlier than earliest
// and returns the end of the booking. The builtin max is math.Max's rule,
// compiled inline.
func (u *unit) reserve(earliest, d float64) float64 {
	u.busyUntil = max(earliest, u.busyUntil) + d
	u.busyTotal += d
	return u.busyUntil
}

// durations returns step k's input, compute and output times at the given
// rates. Rates that pass Validate can still overflow them (a subnormal rate
// against a large step), so a time that is not finite is an error naming
// step k and the first such phase.
func durations(st Step, r Rates, k int) (tIn, tC, tOut float64, err error) {
	tIn = float64(st.InWords) / r.IOWords
	tC = float64(st.Ops) / r.ComputeOps
	tOut = float64(st.OutWords) / r.IOWords
	for i, d := range [...]float64{tIn, tC, tOut} {
		if !(d <= math.MaxFloat64) {
			phase := [...]string{"input", "compute", "output"}[i]
			return 0, 0, 0, fmt.Errorf("machine: step %d: %s duration %v is not finite", k, phase, d)
		}
	}
	return tIn, tC, tOut, nil
}

// pending is a step whose input is booked and whose compute is not: when
// its input lands, and how long its compute and output take.
type pending struct {
	inputDone, tCompute, tOut float64
}

// Pipeline runs macro-steps on a PE with buffers local buffers, one step at
// a time: step k's input becomes eligible when step k-buffers has finished
// computing, and inputs and outputs share the one I/O channel. Push steps
// in order and read the run with Metrics; no step list is held.
type Pipeline struct {
	rates            Rates
	buffers          int
	compute, channel unit
	// ring holds the steps in flight, oldest at head once it is full.
	ring  []pending
	head  int
	steps int
}

// NewPipeline returns an empty pipeline with the given rates and buffer
// count ≥ 1.
func NewPipeline(rates Rates, buffers int) (*Pipeline, error) {
	p := new(Pipeline) // inlined, so a caller's pipeline can stay on its stack
	if err := p.init(rates, buffers); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Pipeline) init(rates Rates, buffers int) error {
	if err := rates.Validate(); err != nil {
		return err
	}
	if buffers < 1 {
		return fmt.Errorf("machine: buffer count %d must be ≥ 1", buffers)
	}
	// The ring grows as steps arrive, so a buffer count past the step
	// count costs nothing.
	*p = Pipeline{rates: rates, buffers: buffers, ring: make([]pending, 0, min(buffers, 4))}
	return nil
}

// Push runs the next step. A step whose input, compute or output duration
// is not finite is an error naming the first such phase, and leaves the
// pipeline as it was.
func (p *Pipeline) Push(st Step) error {
	tIn, tC, tOut, err := durations(st, p.rates, p.steps)
	if err != nil {
		return err
	}
	p.steps++
	if len(p.ring) < p.buffers {
		// One of the first B steps: a free buffer, read from t = 0.
		p.ring = append(p.ring, pending{p.channel.reserve(0, tIn), tC, tOut})
		return nil
	}
	// The oldest step computes and writes back, and its buffer takes
	// this step's input.
	old := &p.ring[p.head]
	done := retire(&p.compute, &p.channel, *old)
	*old = pending{p.channel.reserve(done, tIn), tC, tOut}
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
	return nil
}

// retire books a pending step's compute after its input and then its
// output on the channel, and returns when the compute finished.
func retire(compute, channel *unit, s pending) float64 {
	done := compute.reserve(s.inputDone, s.tCompute)
	channel.reserve(done, s.tOut)
	return done
}

// Metrics reports the run of the steps pushed so far, as if the stream
// ended here: the steps in flight compute and write back in order. The
// pipeline is unchanged, so pushing may go on.
func (p *Pipeline) Metrics() Metrics {
	compute, channel := p.compute, p.channel
	for _, part := range [2][]pending{p.ring[p.head:], p.ring[:p.head]} {
		for _, s := range part {
			retire(&compute, &channel, s)
		}
	}
	// The run ends when both units drain.
	return Metrics{
		Makespan:    max(compute.busyUntil, channel.busyUntil),
		ComputeBusy: compute.busyTotal,
		IOBusy:      channel.busyTotal,
		Steps:       p.steps,
	}
}

// RunPipeline executes the macro-steps on a PE with the given rates under
// double buffering: step k's input transfer may overlap step k-1's compute
// and slip in front of step k-1's output on the shared channel when it
// became eligible earlier — exactly how a double-buffered DMA engine
// behaves. A step whose phase duration is not finite is an error.
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
	p, err := NewPipeline(rates, buffers)
	if err != nil {
		return Metrics{}, err
	}
	for _, st := range steps {
		if err := p.Push(st); err != nil {
			return Metrics{}, err
		}
	}
	return p.Metrics(), nil
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
		tIn, tC, tOut, err := durations(st, rates, k)
		if err != nil {
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
