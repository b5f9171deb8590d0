package machine

import (
	"container/heap"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestPipelineTieArbitrationFIFO: steps 1 and 2 finish their inputs at the
// same instant (step 2's input is empty), and the compute unit serves them
// in scheduling order. Served the other way round, step 2's long output
// would start at 3 and the makespan would be 9.
func TestPipelineTieArbitrationFIFO(t *testing.T) {
	steps := []Step{{InWords: 1, Ops: 1}, {InWords: 1, Ops: 5, OutWords: 1}, {Ops: 1, OutWords: 3}}
	m, err := RunPipelineBuffered(Rates{ComputeOps: 1, IOWords: 1}, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Metrics{Makespan: 11, ComputeBusy: 7, IOBusy: 6, Steps: 3}); m != want {
		t.Errorf("metrics = %+v, want %+v", m, want)
	}
}

func TestServerSerializes(t *testing.T) {
	var u unit
	if e1 := u.reserve(0, 10); e1 != 10 {
		t.Errorf("first reservation ends %v, want 10", e1)
	}
	// Requested at 5 but the unit is busy until 10.
	if e2 := u.reserve(5, 3); e2 != 13 {
		t.Errorf("second reservation ends %v, want 13", e2)
	}
	// Idle gap allowed.
	if e3 := u.reserve(20, 1); e3 != 21 {
		t.Errorf("third reservation ends %v, want 21", e3)
	}
	if u.busyTotal != 14 {
		t.Errorf("busyTotal = %v, want 14", u.busyTotal)
	}
}

func TestRunSerialBalanced(t *testing.T) {
	// 100 ops at rate 100/s = 1s compute; 10 words at 10/s = 1s I/O.
	rates := Rates{ComputeOps: 100, IOWords: 10}
	steps := []Step{{InWords: 5, Ops: 100, OutWords: 5}}
	m, err := RunSerial(rates, steps)
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan != 2 || m.ComputeBusy != 1 || m.IOBusy != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if u := m.ComputeUtilization(); u != 0.5 {
		t.Errorf("serial balanced utilization = %v, want 0.5", u)
	}
}

func TestRunPipelineOverlapsIO(t *testing.T) {
	// Compute-heavy steps: pipeline should hide nearly all I/O.
	rates := Rates{ComputeOps: 1000, IOWords: 1000}
	steps := make([]Step, 50)
	for i := range steps {
		steps[i] = Step{InWords: 10, Ops: 1000, OutWords: 10} // 1s compute, 0.02s I/O
	}
	m, err := RunPipeline(rates, steps)
	if err != nil {
		t.Fatal(err)
	}
	if u := m.ComputeUtilization(); u < 0.97 {
		t.Errorf("compute-heavy pipeline utilization = %v, want ≈ 1", u)
	}
	if m.IOBound(0.05) {
		t.Error("compute-heavy pipeline classified as I/O bound")
	}
}

func TestRunPipelineIOStarved(t *testing.T) {
	// I/O-heavy steps: the compute unit must starve.
	rates := Rates{ComputeOps: 1e6, IOWords: 10}
	steps := make([]Step, 20)
	for i := range steps {
		steps[i] = Step{InWords: 100, Ops: 100, OutWords: 100}
	}
	m, err := RunPipeline(rates, steps)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IOBound(0.05) {
		t.Errorf("I/O-heavy pipeline not classified as I/O bound: util=%v", m.ComputeUtilization())
	}
	// Makespan is dominated by the channel: ≈ total words / rate.
	wantIO := float64(20*200) / 10
	if m.Makespan < wantIO || m.Makespan > wantIO*1.05 {
		t.Errorf("makespan = %v, want ≈ %v", m.Makespan, wantIO)
	}
}

func TestRunPipelineBalancedPoint(t *testing.T) {
	// Steps whose compute time equals I/O time: utilization ≈ 1 under
	// overlap (the design point of the paper's balance condition).
	rates := Rates{ComputeOps: 100, IOWords: 100}
	steps := make([]Step, 40)
	for i := range steps {
		steps[i] = Step{InWords: 50, Ops: 100, OutWords: 50}
	}
	m, err := RunPipeline(rates, steps)
	if err != nil {
		t.Fatal(err)
	}
	if u := m.ComputeUtilization(); u < 0.9 {
		t.Errorf("balanced pipeline utilization = %v, want ≳ 0.95", u)
	}
}

func TestRatesValidation(t *testing.T) {
	bad := []Rates{
		{ComputeOps: 0, IOWords: 1},
		{ComputeOps: 1, IOWords: 0},
		{ComputeOps: math.Inf(1), IOWords: 1},
		{ComputeOps: -1, IOWords: 1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rates %+v accepted", r)
		}
		if _, err := RunPipeline(r, nil); err == nil {
			t.Errorf("RunPipeline with %+v accepted", r)
		}
		if _, err := RunSerial(r, nil); err == nil {
			t.Errorf("RunSerial with %+v accepted", r)
		}
	}
}

func TestTotalWork(t *testing.T) {
	in, ops, out := TotalWork([]Step{{1, 2, 3}, {10, 20, 30}})
	if in != 11 || ops != 22 || out != 33 {
		t.Errorf("TotalWork = %d %d %d", in, ops, out)
	}
}

func TestEmptySteps(t *testing.T) {
	rates := Rates{ComputeOps: 1, IOWords: 1}
	m, err := RunPipeline(rates, nil)
	if err != nil || m.Makespan != 0 || m.ComputeUtilization() != 0 {
		t.Errorf("empty pipeline: %+v, %v", m, err)
	}
}

// Property: the pipeline makespan is never shorter than either resource's
// total demand and never longer than the serial schedule.
func TestPipelineBoundsProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 1 + int(n8%30)
		rng := newRand(seed)
		steps := make([]Step, n)
		for i := range steps {
			steps[i] = Step{
				InWords:  uint64(rng()%100 + 1),
				Ops:      uint64(rng()%1000 + 1),
				OutWords: uint64(rng() % 100),
			}
		}
		rates := Rates{ComputeOps: 500, IOWords: 50}
		pipe, err1 := RunPipeline(rates, steps)
		serial, err2 := RunSerial(rates, steps)
		if err1 != nil || err2 != nil {
			return false
		}
		lower := math.Max(pipe.ComputeBusy, pipe.IOBusy)
		const eps = 1e-9
		return pipe.Makespan >= lower-eps && pipe.Makespan <= serial.Makespan+eps &&
			math.Abs(pipe.ComputeBusy-serial.ComputeBusy) < eps &&
			math.Abs(pipe.IOBusy-serial.IOBusy) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic generator to avoid importing math/rand in
// multiple property tests.
func newRand(seed int64) func() uint64 {
	x := uint64(seed)*2654435761 + 1
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}

func TestBufferedPipelineValidation(t *testing.T) {
	rates := Rates{ComputeOps: 1, IOWords: 1}
	if _, err := RunPipelineBuffered(rates, nil, 0); err == nil {
		t.Error("zero buffers accepted")
	}
	if _, err := RunPipelineBuffered(rates, nil, -1); err == nil {
		t.Error("negative buffers accepted")
	}
}

// TestBufferSweepSaturatesAtTwo: for uniform balanced steps, one buffer
// serializes (utilization ≈ 0.5), two buffers reach ≈ 1, and more buffers
// add nothing.
func TestBufferSweepSaturatesAtTwo(t *testing.T) {
	rates := Rates{ComputeOps: 100, IOWords: 100}
	steps := make([]Step, 60)
	for i := range steps {
		steps[i] = Step{InWords: 50, Ops: 100, OutWords: 50}
	}
	util := map[int]float64{}
	for _, b := range []int{1, 2, 4, 8} {
		m, err := RunPipelineBuffered(rates, steps, b)
		if err != nil {
			t.Fatal(err)
		}
		util[b] = m.ComputeUtilization()
	}
	if util[1] > 0.6 {
		t.Errorf("single buffer utilization = %v, want ≈ 0.5", util[1])
	}
	if util[2] < 0.9 {
		t.Errorf("double buffer utilization = %v, want ≈ 1", util[2])
	}
	if util[4] < util[2]-0.02 || util[8] < util[2]-0.02 {
		t.Errorf("extra buffers hurt: %v", util)
	}
}

// Property: more buffers never lengthen the makespan.
func TestBuffersMonotoneProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 2 + int(n8%20)
		rng := newRand(seed)
		steps := make([]Step, n)
		for i := range steps {
			steps[i] = Step{
				InWords:  uint64(rng()%80 + 1),
				Ops:      uint64(rng()%500 + 1),
				OutWords: uint64(rng() % 80),
			}
		}
		rates := Rates{ComputeOps: 300, IOWords: 60}
		prev := math.Inf(1)
		for _, b := range []int{1, 2, 3, 6} {
			m, err := RunPipelineBuffered(rates, steps, b)
			if err != nil {
				return false
			}
			if m.Makespan > prev+1e-9 {
				return false
			}
			prev = m.Makespan
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuffersBeyondStepsClamp: a buffer count past the step count, up to
// math.MaxInt, runs exactly like one buffer per step.
func TestBuffersBeyondStepsClamp(t *testing.T) {
	rates := Rates{ComputeOps: 3, IOWords: 2}
	steps := []Step{{4, 9, 1}, {2, 1, 5}, {7, 3, 0}, {1, 8, 2}}
	want, err := RunPipelineBuffered(rates, steps, len(steps))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{len(steps) + 1, math.MaxInt - 1, math.MaxInt} {
		got, err := RunPipelineBuffered(rates, steps, b)
		if err != nil || got != want {
			t.Errorf("buffers=%d: %+v, %v; want %+v", b, got, err, want)
		}
	}
}

// TestNonFiniteDurationIsAnError: a subnormal I/O rate passes Validate but
// overflows a large step's transfer time to +Inf; both runners report the
// step and phase instead of panicking or returning an infinite makespan.
func TestNonFiniteDurationIsAnError(t *testing.T) {
	rates := Rates{ComputeOps: 1, IOWords: 1e-320}
	if err := rates.Validate(); err != nil {
		t.Fatalf("subnormal rate rejected by Validate: %v", err)
	}
	steps := []Step{{InWords: 0, Ops: 1}, {InWords: 1 << 40, Ops: 1, OutWords: 1}}
	for name, run := range map[string]func(Rates, []Step) (Metrics, error){
		"RunPipeline": RunPipeline,
		"RunSerial":   RunSerial,
	} {
		m, err := run(rates, steps)
		if err == nil {
			t.Errorf("%s: no error, metrics %+v", name, m)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "step 1") || !strings.Contains(msg, "input") {
			t.Errorf("%s: error %q does not name step 1's input", name, msg)
		}
	}
	// The compute phase is checked too.
	huge := Rates{ComputeOps: 1e-320, IOWords: 1}
	for _, b := range []int{1, 2, 4} {
		if _, err := RunPipelineBuffered(huge, []Step{{1, 1 << 40, 1}}, b); err == nil || !strings.Contains(err.Error(), "compute") {
			t.Errorf("buffers=%d: compute overflow gave %v", b, err)
		}
	}
}

// TestPipelineMatchesClosureOracle is the differential property test: the
// two-unit recurrence returns Metrics equal (==, bit for bit) to the
// event-driven closure implementation, kept below as runPipelineClosures. Small
// integer words and rates make simultaneous events common, so FIFO
// arbitration on ties is exercised.
func TestPipelineMatchesClosureOracle(t *testing.T) {
	rng := newRand(18)
	const runs = 12000
	for i := range runs {
		steps := make([]Step, rng()%61)
		for k := range steps {
			steps[k] = Step{InWords: rng() % 5, Ops: rng() % 9, OutWords: rng() % 5}
		}
		rates := Rates{ComputeOps: float64(1 + rng()%4), IOWords: float64(1 + rng()%4)}
		buffers := 1 + int(rng()%4)
		if i%50 == 0 {
			buffers = len(steps) + 1 // one heap entry per step
		}
		got, err := RunPipelineBuffered(rates, steps, buffers)
		if err != nil {
			t.Fatal(err)
		}
		if want := runPipelineClosures(rates, steps, buffers); got != want {
			t.Fatalf("run %d (rates %+v, buffers %d, steps %v): got %+v, oracle %+v",
				i, rates, buffers, steps, got, want)
		}
	}
}

// TestPipelineMatchesClosureOracleFractionalRates repeats the differential
// test at rates whose durations round: 4e6 against 1e6, 1/3 and 3.7, so
// every booking's sum is a rounded float and the recurrence must round in
// the oracle's order to stay equal with ==.
func TestPipelineMatchesClosureOracleFractionalRates(t *testing.T) {
	rng := newRand(20)
	rateSet := []float64{4e6, 1e6, 1.0 / 3, 3.7, 0.1}
	for i := range 6000 {
		steps := make([]Step, rng()%61)
		for k := range steps {
			steps[k] = Step{InWords: rng() % 300, Ops: rng() % 900, OutWords: rng() % 300}
		}
		rates := Rates{ComputeOps: rateSet[rng()%5], IOWords: rateSet[rng()%5]}
		buffers := 1 + int(rng()%4)
		got, err := RunPipelineBuffered(rates, steps, buffers)
		if err != nil {
			t.Fatal(err)
		}
		if want := runPipelineClosures(rates, steps, buffers); got != want {
			t.Fatalf("run %d (rates %+v, buffers %d, steps %v): got %+v, oracle %+v",
				i, rates, buffers, steps, got, want)
		}
	}
}

// TestPipelineMetricsMidStream: Metrics after any prefix of pushes is the
// run of that prefix, reading it does not disturb the run, and a rejected
// step leaves the pipeline as it was.
func TestPipelineMetricsMidStream(t *testing.T) {
	rates := Rates{ComputeOps: 3.7, IOWords: 1.0 / 3}
	rng := newRand(7)
	steps := make([]Step, 40)
	for k := range steps {
		steps[k] = Step{InWords: rng() % 50, Ops: rng() % 200, OutWords: rng() % 50}
	}
	for _, buffers := range []int{1, 2, 3, 64} {
		p, err := NewPipeline(rates, buffers)
		if err != nil {
			t.Fatal(err)
		}
		for k, st := range steps {
			if err := p.Push(st); err != nil {
				t.Fatal(err)
			}
			if got, want := p.Metrics(), runPipelineClosures(rates, steps[:k+1], buffers); got != want {
				t.Fatalf("buffers=%d after %d steps: %+v, oracle %+v", buffers, k+1, got, want)
			}
		}
	}
	// A subnormal rate overflows a large step's input time.
	p, err := NewPipeline(Rates{ComputeOps: 1, IOWords: 1e-320}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(Step{Ops: 1}); err != nil {
		t.Fatal(err)
	}
	before := p.Metrics()
	if err := p.Push(Step{InWords: 1 << 40, Ops: 1}); err == nil || !strings.Contains(err.Error(), "step 1: input") {
		t.Fatalf("overflowing step gave %v", err)
	}
	if got := p.Metrics(); got != before {
		t.Fatalf("rejected step changed the run: %+v, was %+v", got, before)
	}
	if err := p.Push(Step{Ops: 2}); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics(); got != (Metrics{Makespan: 3, ComputeBusy: 3, Steps: 2}) {
		t.Errorf("run after a rejected step: %+v", got)
	}
	if _, err := NewPipeline(rates, 0); err == nil {
		t.Error("zero buffers accepted")
	}
	if _, err := NewPipeline(Rates{ComputeOps: 1}, 2); err == nil {
		t.Error("zero I/O rate accepted")
	}
}

// TestRunPipelineAllocsConstant: the run allocates the same at 100 steps as
// at 100k, so a step costs no allocation.
func TestRunPipelineAllocsConstant(t *testing.T) {
	rates := Rates{ComputeOps: 4, IOWords: 1}
	allocs := func(n int) float64 {
		steps := uniformSteps(n)
		return testing.AllocsPerRun(5, func() { pipelineSink, _ = RunPipeline(rates, steps) })
	}
	if small, large := allocs(100), allocs(100_000); small != large {
		t.Errorf("allocs/run: %v at 100 steps, %v at 100k", small, large)
	}
}

var pipelineSink Metrics

func uniformSteps(n int) []Step {
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{InWords: 64, Ops: 256, OutWords: 16}
	}
	return steps
}

// BenchmarkRunPipeline is one double-buffered run of 100k uniform steps.
func BenchmarkRunPipeline(b *testing.B) {
	rates := Rates{ComputeOps: 4, IOWords: 1}
	steps := uniformSteps(100_000)
	b.ReportAllocs()
	for b.Loop() {
		pipelineSink, _ = RunPipeline(rates, steps)
	}
}

// runPipelineClosures is the closure-and-container/heap implementation of
// RunPipelineBuffered that the typed-event heap and then the two-unit
// recurrence replaced, kept verbatim (engine types renamed) as the
// reference for the differential tests. It assumes finite durations.
func runPipelineClosures(rates Rates, steps []Step, buffers int) Metrics {
	metrics := Metrics{Steps: len(steps)}
	if len(steps) == 0 {
		return metrics
	}
	sim := newOracleSim()
	compute := newOracleServer("compute")
	computeFree := 0.0 // end of the latest compute, k strictly increasing
	channel := newOracleServer("io")

	var inputEligible func(k int)
	inputEligible = func(k int) {
		st := steps[k]
		_, inEnd := channel.Reserve(sim.Now(), float64(st.InWords)/rates.IOWords)
		sim.At(inEnd, func() {
			// Compute after our input (now) and the previous compute.
			start := math.Max(sim.Now(), computeFree)
			_, cEnd := compute.Reserve(start, float64(st.Ops)/rates.ComputeOps)
			computeFree = cEnd
			sim.At(cEnd, func() {
				// Output on the shared channel; our buffer
				// frees for step k+buffers.
				channel.Reserve(sim.Now(), float64(st.OutWords)/rates.IOWords)
				if k+buffers < len(steps) {
					inputEligible(k + buffers)
				}
			})
		})
	}
	for k := 0; k < buffers && k < len(steps); k++ {
		inputEligible(k)
	}
	sim.Run()

	// The run ends when both servers drain.
	metrics.Makespan = math.Max(compute.busyUntil, channel.busyUntil)
	metrics.ComputeBusy = compute.BusyTotal()
	metrics.IOBusy = channel.BusyTotal()
	return metrics
}

// The generic discrete-event engine the closure implementation ran on.

type oracleEvent struct {
	at  float64
	seq int64 // tie-break for deterministic ordering
	fn  func()
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x interface{}) { *q = append(*q, x.(*oracleEvent)) }
func (q *oracleQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type oracleSim struct {
	now   float64
	seq   int64
	queue oracleQueue
}

func newOracleSim() *oracleSim { return &oracleSim{} }

func (s *oracleSim) Now() float64 { return s.now }

func (s *oracleSim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("machine: scheduling into the past (%v < %v)", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &oracleEvent{at: t, seq: s.seq, fn: fn})
}

func (s *oracleSim) Run() float64 {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*oracleEvent)
		s.now = e.at
		e.fn()
	}
	return s.now
}

type oracleServer struct {
	name      string
	busyUntil float64
	busyTotal float64
}

func newOracleServer(name string) *oracleServer { return &oracleServer{name: name} }

func (sv *oracleServer) Reserve(earliest, duration float64) (start, end float64) {
	if duration < 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		panic(fmt.Sprintf("machine: %s: invalid service duration %v", sv.name, duration))
	}
	start = math.Max(earliest, sv.busyUntil)
	end = start + duration
	sv.busyUntil = end
	sv.busyTotal += duration
	return start, end
}

func (sv *oracleServer) BusyTotal() float64 { return sv.busyTotal }
