// Package machine simulates the paper's processing element (Fig. 1): a
// compute unit with bandwidth C operations per second, an I/O channel with
// bandwidth IO words per second, and a local memory that holds the working
// set between transfers. Computations are presented as streams of
// macro-steps (read a block, compute on it, write a block); RunPipeline
// executes them as a typed-event double-buffered pipeline — I/O of step k+1
// overlaps the computation of step k — and reports where the time went, so
// balance is an observed property of a run rather than a formula.
package machine

import (
	"fmt"
	"math"
)

// Event kinds of the pipeline: step k's input transfer or its compute has
// completed.
const (
	inputDone uint8 = iota
	computeDone
)

// event is one completion in virtual time. seq is assigned in scheduling
// order and breaks ties, so simultaneous events run first-scheduled first.
type event struct {
	at   float64
	seq  int64
	kind uint8
	k    int
}

func (e event) before(o event) bool { return e.at < o.at || e.at == o.at && e.seq < o.seq }

// events is a binary min-heap of pending events ordered by (at, seq), with
// the virtual clock: now is the time of the event popped last.
type events struct {
	q   []event
	now float64
	seq int64
}

// at schedules an event of the given kind for step k at time t ≥ now.
func (h *events) at(t float64, kind uint8, k int) {
	if t < h.now {
		panic(fmt.Sprintf("machine: scheduling into the past (%v < %v)", t, h.now))
	}
	h.seq++
	h.q = append(h.q, event{at: t, seq: h.seq, kind: kind, k: k})
	for i := len(h.q) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.q[i].before(h.q[p]) {
			break
		}
		h.q[i], h.q[p] = h.q[p], h.q[i]
		i = p
	}
}

// pop removes the earliest event and advances the clock to it.
func (h *events) pop() event {
	e := h.q[0]
	n := len(h.q) - 1
	h.q[0] = h.q[n]
	h.q = h.q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && h.q[c+1].before(h.q[c]) {
			c++
		}
		if c >= n || !h.q[c].before(h.q[i]) {
			break
		}
		h.q[i], h.q[c] = h.q[c], h.q[i]
		i = c
	}
	h.now = e.at
	return e
}

// unit is a serially reusable resource (the compute unit or the I/O
// channel): bookings are served back to back, and busy time accumulates
// for utilization accounting.
type unit struct {
	busyUntil, busyTotal float64
}

// reserve books the unit for d seconds starting no earlier than earliest
// and returns the end of the booking.
func (u *unit) reserve(earliest, d float64) float64 {
	u.busyUntil = math.Max(earliest, u.busyUntil) + d
	u.busyTotal += d
	return u.busyUntil
}

// phaseTime is the duration of n units at rate per second. Rates that pass
// Validate can still overflow it (a subnormal rate against a large step), so
// a non-finite result is an error naming step k and the phase.
func phaseTime(n uint64, rate float64, k int, phase string) (float64, error) {
	d := float64(n) / rate
	if !(d >= 0) || math.IsInf(d, 0) {
		return 0, fmt.Errorf("machine: step %d: %s duration %v is not finite", k, phase, d)
	}
	return d, nil
}
