// Package opcount provides exact operation and I/O-word accounting for
// instrumented kernels.
//
// The information model of Kung (1985) charges a computation two separate
// costs: Ccomp, the total number of arithmetic operations, and Cio, the total
// number of words moved between a processing element and the outside world
// (one I/O operation transfers one word, paper §2). Every executing kernel
// in internal/kernels threads a *Counter through its decomposition loops so
// the two costs are measured exactly, not estimated; the count-only forms
// return the same two costs as a Totals value.
package opcount

import "fmt"

// Counter accumulates the two cost totals of the information model plus a
// read/write breakdown of the I/O traffic. The zero value is ready to use.
// Counter is not safe for concurrent use; each goroutine should own its own
// Counter.
type Counter struct {
	ops    uint64 // arithmetic operations (Ccomp)
	reads  uint64 // words read from outside the PE
	writes uint64 // words written to outside the PE
}

// Ops adds n arithmetic operations.
func (c *Counter) Ops(n int) {
	if n < 0 {
		panic("opcount: negative op count")
	}
	c.ops += uint64(n)
}

// Read adds n words of input I/O.
func (c *Counter) Read(n int) {
	if n < 0 {
		panic("opcount: negative read count")
	}
	c.reads += uint64(n)
}

// Write adds n words of output I/O.
func (c *Counter) Write(n int) {
	if n < 0 {
		panic("opcount: negative write count")
	}
	c.writes += uint64(n)
}

// Ccomp returns the accumulated arithmetic operation count.
func (c *Counter) Ccomp() uint64 { return c.ops }

// Cio returns the accumulated I/O word count (reads + writes).
func (c *Counter) Cio() uint64 { return c.reads + c.writes }

// Reads returns the accumulated input word count.
func (c *Counter) Reads() uint64 { return c.reads }

// Writes returns the accumulated output word count.
func (c *Counter) Writes() uint64 { return c.writes }

// Ratio returns Ccomp/Cio, the quantity the balance condition constrains
// (paper eq. (1)): a PE with computation bandwidth C and I/O bandwidth IO is
// balanced iff C/IO = Ccomp/Cio. Ratio panics if no I/O has been recorded,
// because a computation with zero I/O has no balance constraint.
func (c *Counter) Ratio() float64 {
	io := c.Cio()
	if io == 0 {
		panic("opcount: ratio undefined with zero I/O")
	}
	return float64(c.ops) / float64(io)
}

// Snapshot returns a copy of the current tallies.
func (c *Counter) Snapshot() Totals {
	return Totals{Ops: c.ops, Reads: c.reads, Writes: c.writes}
}

// String renders the tallies compactly for logs and test failures.
func (c *Counter) String() string {
	return fmt.Sprintf("ops=%d reads=%d writes=%d", c.ops, c.reads, c.writes)
}

// Totals is an immutable snapshot of a Counter.
type Totals struct {
	Ops    uint64
	Reads  uint64
	Writes uint64
}

// Cio returns the total I/O word count of the snapshot.
func (t Totals) Cio() uint64 { return t.Reads + t.Writes }

// Ratio returns Ops/Cio for the snapshot. It returns +Inf-free 0 when the
// snapshot has no I/O so callers can use it in tabular output; use
// Counter.Ratio when a zero-I/O computation should be a hard error.
func (t Totals) Ratio() float64 {
	io := t.Cio()
	if io == 0 {
		return 0
	}
	return float64(t.Ops) / float64(io)
}
