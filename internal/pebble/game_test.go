package pebble

import "testing"

// twoInputSum builds in0, in1 → sum (output).
func twoInputSum() *DAG {
	return newDAG(3, [][2]int{{0, 2}, {1, 2}}, []int{2}, nil)
}

func TestExecuteLegalSchedule(t *testing.T) {
	d := twoInputSum()
	sched := Schedule{
		{Input, 0}, {Input, 1}, {Compute, 2}, {Output, 2},
		{Delete, 0}, {Delete, 1}, {Delete, 2},
	}
	res, err := Execute(d, 3, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO() != 3 {
		t.Errorf("IO = %d, want 3", res.IO())
	}
	if res.PeakRed != 3 {
		t.Errorf("PeakRed = %d, want 3", res.PeakRed)
	}
	if res.Computes != 1 || res.Deletes != 3 {
		t.Errorf("unexpected stats: %+v", res)
	}
}

func TestExecuteRejectsIllegalMoves(t *testing.T) {
	d := twoInputSum()
	cases := []struct {
		name  string
		s     int
		sched Schedule
	}{
		{"input without blue", 3, Schedule{{Input, 2}}},
		{"double input", 3, Schedule{{Input, 0}, {Input, 0}}},
		{"compute missing operand", 3, Schedule{{Input, 0}, {Compute, 2}}},
		{"compute an input", 3, Schedule{{Compute, 0}}},
		{"output without red", 3, Schedule{{Output, 2}}},
		{"delete without red", 3, Schedule{{Delete, 0}}},
		{"budget exceeded", 2, Schedule{{Input, 0}, {Input, 1}, {Compute, 2}}},
		{"vertex out of range", 3, Schedule{{Input, 9}}},
		{"recompute already red", 3, Schedule{{Input, 0}, {Input, 1}, {Compute, 2}, {Compute, 2}}},
	}
	for _, tc := range cases {
		if _, err := Execute(d, tc.s, tc.sched); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestExecuteRequiresOutputsBlue(t *testing.T) {
	d := twoInputSum()
	// Compute but never output.
	sched := Schedule{{Input, 0}, {Input, 1}, {Compute, 2}}
	if _, err := Execute(d, 3, sched); err == nil {
		t.Error("missing output accepted")
	}
}

func TestExecuteBadBudget(t *testing.T) {
	if _, err := Execute(twoInputSum(), 0, nil); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestMoveKindString(t *testing.T) {
	for _, k := range []MoveKind{Input, Output, Compute, Delete, MoveKind(9)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestExecuteAllowsRecomputation(t *testing.T) {
	// Compute v, delete it, recompute it — legal in the Hong-Kung game.
	d := twoInputSum()
	sched := Schedule{
		{Input, 0}, {Input, 1}, {Compute, 2}, {Delete, 2},
		{Compute, 2}, {Output, 2},
	}
	if _, err := Execute(d, 3, sched); err != nil {
		t.Errorf("recomputation rejected: %v", err)
	}
}
