// Package model implements the information model of Kung (1985): a
// processing element characterized by computation bandwidth C, I/O bandwidth
// IO, and local memory size M (paper §2, Fig. 1), the balance condition
// Ccomp/C = Cio/IO, the per-computation achievable ratio functions
// R(M) = Ccomp/Cio, the memory growth laws of §3, and the numeric rebalance
// solver that answers the paper's central question: when C/IO rises by a
// factor α, how large must the local memory become?
package model

import (
	"errors"
	"fmt"
	"math"
)

// PE is a processing element in the paper's information model.
type PE struct {
	// C is the computation bandwidth in operations per second.
	C float64
	// IO is the I/O bandwidth in words per second. One I/O operation
	// transfers one word to or from the PE.
	IO float64
	// M is the size of the local memory in words.
	M float64
}

// Validate reports whether the PE's parameters are physically meaningful.
func (pe PE) Validate() error {
	switch {
	case !(pe.C > 0) || math.IsInf(pe.C, 0):
		return fmt.Errorf("model: computation bandwidth C=%v must be positive and finite", pe.C)
	case !(pe.IO > 0) || math.IsInf(pe.IO, 0):
		return fmt.Errorf("model: I/O bandwidth IO=%v must be positive and finite", pe.IO)
	case !(pe.M > 0) || math.IsInf(pe.M, 0):
		return fmt.Errorf("model: local memory M=%v must be positive and finite", pe.M)
	case math.IsInf(pe.C/pe.IO, 0):
		// Finite C over denormal IO can still overflow the intensity,
		// and an infinite intensity poisons every downstream figure.
		return fmt.Errorf("model: intensity C/IO = %v/%v overflows", pe.C, pe.IO)
	}
	return nil
}

// Intensity returns C/IO, the machine-side ratio that the computation-side
// ratio Ccomp/Cio must match for balance (paper eq. (1)).
func (pe PE) Intensity() float64 { return pe.C / pe.IO }

// ComputeTime returns the time to execute ccomp operations.
func (pe PE) ComputeTime(ccomp float64) float64 { return ccomp / pe.C }

// IOTime returns the time to transfer cio words.
func (pe PE) IOTime(cio float64) float64 { return cio / pe.IO }

// String renders the PE in the paper's (C, IO, M) notation.
func (pe PE) String() string {
	return fmt.Sprintf("PE{C=%s ops/s, IO=%s words/s, M=%s words}",
		siNumber(pe.C), siNumber(pe.IO), siNumber(pe.M))
}

// BalanceState classifies how a PE relates to a computation's demands.
type BalanceState int

const (
	// Balanced: computing time equals I/O time (within tolerance).
	Balanced BalanceState = iota
	// IOBound: the PE waits for I/O (I/O time exceeds computing time).
	IOBound
	// ComputeBound: the PE's compute unit is the limiter; its I/O channel
	// is underused. (The paper calls the overall class of such workloads
	// "computation bounded".)
	ComputeBound
)

// String names the balance state.
func (s BalanceState) String() string {
	switch s {
	case Balanced:
		return "balanced"
	case IOBound:
		return "I/O bound (PE waits for I/O)"
	case ComputeBound:
		return "compute bound (I/O channel underused)"
	default:
		return fmt.Sprintf("BalanceState(%d)", int(s))
	}
}

// BalanceTolerance is the default relative tolerance used when classifying a
// PE as balanced: times within 1% are considered equal, absorbing the
// lower-order terms the paper's Θ-notation hides.
const BalanceTolerance = 0.01

// ErrNotRebalanceable is returned by rebalance solvers for I/O-bounded
// computations: per paper §3.6, no enlargement of local memory can restore
// balance once C/IO has grown, because the ratio Ccomp/Cio is bounded by a
// constant independent of M.
var ErrNotRebalanceable = errors.New("model: computation is I/O bounded; no local memory size restores balance (paper §3.6)")

// siNumber formats a float with an SI suffix for readable PE descriptions.
func siNumber(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e12:
		return fmt.Sprintf("%.3gT", v/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
