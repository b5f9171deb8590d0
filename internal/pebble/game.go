package pebble

import "fmt"

// MoveKind enumerates the four legal moves of the red-blue pebble game.
type MoveKind int

const (
	// Input places a red pebble on a vertex holding a blue pebble
	// (read one word from outside: 1 I/O).
	Input MoveKind = iota
	// Output places a blue pebble on a vertex holding a red pebble
	// (write one word to outside: 1 I/O).
	Output
	// Compute places a red pebble on a vertex all of whose predecessors
	// hold red pebbles (free).
	Compute
	// Delete removes a red pebble (free).
	Delete
)

// String names the move kind.
func (k MoveKind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Compute:
		return "compute"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("MoveKind(%d)", int(k))
	}
}

// Move is one step of a pebbling schedule.
type Move struct {
	Kind   MoveKind
	Vertex int
}

// Schedule is a sequence of moves.
type Schedule []Move

// ExecResult reports the statistics of a validated schedule execution.
type ExecResult struct {
	Inputs   int // words read (Input moves)
	Outputs  int // words written (Output moves)
	Computes int
	Deletes  int
	PeakRed  int // maximum red pebbles simultaneously in use
}

// IO returns total I/O operations.
func (r ExecResult) IO() int { return r.Inputs + r.Outputs }

// Execute runs the schedule against the game rules with at most s red
// pebbles, verifying every move's legality, and checks that every declared
// output vertex ends with a blue pebble. Inputs of the DAG start with blue
// pebbles; everything else starts bare.
func Execute(d *DAG, s int, sched Schedule) (ExecResult, error) {
	if s < 1 {
		return ExecResult{}, fmt.Errorf("pebble: red pebble budget %d must be ≥ 1", s)
	}
	red := make([]bool, d.Len())
	blue := make([]bool, d.Len())
	for _, v := range d.Inputs() {
		blue[v] = true
	}
	var res ExecResult
	redCount := 0
	for step, m := range sched {
		if m.Vertex < 0 || m.Vertex >= d.Len() {
			return res, fmt.Errorf("pebble: step %d: vertex %d out of range", step, m.Vertex)
		}
		switch m.Kind {
		case Input:
			if !blue[m.Vertex] {
				return res, fmt.Errorf("pebble: step %d: input of %s without blue pebble", step, d.Label(m.Vertex))
			}
			if red[m.Vertex] {
				return res, fmt.Errorf("pebble: step %d: input of %s already red", step, d.Label(m.Vertex))
			}
			if redCount == s {
				return res, fmt.Errorf("pebble: step %d: input of %s exceeds %d red pebbles", step, d.Label(m.Vertex), s)
			}
			red[m.Vertex] = true
			redCount++
			res.Inputs++
		case Output:
			if !red[m.Vertex] {
				return res, fmt.Errorf("pebble: step %d: output of %s without red pebble", step, d.Label(m.Vertex))
			}
			blue[m.Vertex] = true
			res.Outputs++
		case Compute:
			for _, p := range d.Preds(m.Vertex) {
				if !red[p] {
					return res, fmt.Errorf("pebble: step %d: compute %s with non-red operand %s",
						step, d.Label(m.Vertex), d.Label(p))
				}
			}
			if d.IsInput(m.Vertex) {
				return res, fmt.Errorf("pebble: step %d: compute of input %s", step, d.Label(m.Vertex))
			}
			if red[m.Vertex] {
				return res, fmt.Errorf("pebble: step %d: compute of %s already red", step, d.Label(m.Vertex))
			}
			if redCount == s {
				return res, fmt.Errorf("pebble: step %d: compute of %s exceeds %d red pebbles", step, d.Label(m.Vertex), s)
			}
			red[m.Vertex] = true
			redCount++
			res.Computes++
		case Delete:
			if !red[m.Vertex] {
				return res, fmt.Errorf("pebble: step %d: delete of %s without red pebble", step, d.Label(m.Vertex))
			}
			red[m.Vertex] = false
			redCount--
			res.Deletes++
		default:
			return res, fmt.Errorf("pebble: step %d: unknown move kind %d", step, int(m.Kind))
		}
		if redCount > res.PeakRed {
			res.PeakRed = redCount
		}
	}
	for _, v := range d.Outputs() {
		if !blue[v] {
			return res, fmt.Errorf("pebble: output %s does not end with a blue pebble", d.Label(v))
		}
	}
	return res, nil
}
