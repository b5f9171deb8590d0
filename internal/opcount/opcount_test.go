package opcount

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var c Counter
	if c.Ccomp() != 0 || c.Cio() != 0 {
		t.Fatalf("zero counter not empty: %s", c.String())
	}
}

func TestBasicAccumulation(t *testing.T) {
	var c Counter
	c.Ops(10)
	c.Read(3)
	c.Write(4)
	c.Ops(5)
	if got := c.Ccomp(); got != 15 {
		t.Errorf("Ccomp = %d, want 15", got)
	}
	if got := c.Cio(); got != 7 {
		t.Errorf("Cio = %d, want 7", got)
	}
	if got := c.Reads(); got != 3 {
		t.Errorf("Reads = %d, want 3", got)
	}
	if got := c.Writes(); got != 4 {
		t.Errorf("Writes = %d, want 4", got)
	}
}

func TestRatio(t *testing.T) {
	var c Counter
	c.Ops(100)
	c.Read(10)
	c.Write(10)
	if got := c.Ratio(); got != 5 {
		t.Errorf("Ratio = %v, want 5", got)
	}
}

func TestRatioPanicsOnZeroIO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ratio with zero I/O did not panic")
		}
	}()
	var c Counter
	c.Ops(1)
	c.Ratio()
}

func TestNegativePanics(t *testing.T) {
	cases := []func(*Counter){
		func(c *Counter) { c.Ops(-1) },
		func(c *Counter) { c.Read(-1) },
		func(c *Counter) { c.Write(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: negative count did not panic", i)
				}
			}()
			var c Counter
			fn(&c)
		}()
	}
}

func TestTotalsRatioZeroIO(t *testing.T) {
	tot := Totals{Ops: 10}
	if got := tot.Ratio(); got != 0 {
		t.Errorf("Totals.Ratio with zero IO = %v, want 0", got)
	}
	if math.IsInf(tot.Ratio(), 1) {
		t.Error("Totals.Ratio must not return +Inf")
	}
}

// Property: a snapshot taken later is always component-wise >= an earlier one
// and the difference is exactly the intervening activity.
func TestSnapshotMonotoneProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		var c Counter
		prev := c.Snapshot()
		for _, s := range steps {
			c.Ops(int(s % 7))
			c.Read(int(s % 5))
			c.Write(int(s % 3))
			cur := c.Snapshot()
			if cur.Ops-prev.Ops != uint64(s%7) || cur.Reads-prev.Reads != uint64(s%5) ||
				cur.Writes-prev.Writes != uint64(s%3) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
