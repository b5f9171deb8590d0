// Package pebble implements the red-blue pebble game of Hong and Kung
// (1981), the lower-bound machinery behind the paper's "best possible"
// claims (§3.1, §3.4, §3.5). Red pebbles model words in the PE's local
// memory (at most S at once); blue pebbles model words in the outside world
// (unlimited). Moving a value between the two colors is one I/O operation;
// the minimum number of such moves over all legal pebbling schedules is the
// computation's intrinsic I/O cost at memory size S.
//
// The package provides the computation DAGs the paper discusses (FFT
// butterfly networks, matrix product graphs, stencils), a schedule executor
// that validates legality and counts I/O, a Belady-style greedy scheduler, a
// blocked FFT scheduler mirroring Fig. 2, an exhaustive optimum search for
// tiny DAGs, and the closed-form lower bounds.
//
// State is dense throughout: a DAG keeps its adjacency in compressed sparse
// row arrays built once from the builder's edge list and names its vertices
// only when Label is called; the greedy scheduler keeps its red set in
// slices; and the exhaustive search keeps its distances in an
// open-addressed table keyed by the packed (red, blue) state.
package pebble

import "fmt"

// DAG is a directed acyclic computation graph. Vertices are numbered 0..n-1
// and every edge points from an operand to the operation consuming it.
// Inputs (no predecessors) start the game with blue pebbles.
//
// Adjacency is stored once, in compressed sparse row form: the operands of
// v are preds[predOff[v]:predOff[v+1]] and its consumers
// succs[succOff[v]:succOff[v+1]], each in the order the edges were given.
// Vertex names are formatted on demand by Label, so a graph holds no
// string per vertex.
type DAG struct {
	predOff, succOff []int
	preds, succs     []int
	outputs          []int
	name             func(v int) string // nil names v "v<v>"
}

// newDAG builds the graph of n vertices with the given edges, each {from,
// to} recording that to consumes the value of from, and declared outputs,
// which must end the game with a blue pebble. name, if not nil, labels the
// vertices.
func newDAG(n int, edges [][2]int, outputs []int, name func(v int) string) *DAG {
	if n <= 0 {
		panic(fmt.Sprintf("pebble: DAG size %d must be positive", n))
	}
	d := &DAG{
		predOff: make([]int, n+1),
		succOff: make([]int, n+1),
		preds:   make([]int, len(edges)),
		succs:   make([]int, len(edges)),
		outputs: outputs,
		name:    name,
	}
	for _, e := range edges {
		d.check(e[0])
		d.check(e[1])
		if e[0] == e[1] {
			panic(fmt.Sprintf("pebble: self edge at %d", e[0]))
		}
		d.succOff[e[0]+1]++
		d.predOff[e[1]+1]++
	}
	for v := range n {
		d.predOff[v+1] += d.predOff[v]
		d.succOff[v+1] += d.succOff[v]
	}
	// Fill each row in edge order, using the row starts as cursors and
	// shifting them back one row afterwards.
	for _, e := range edges {
		d.succs[d.succOff[e[0]]] = e[1]
		d.succOff[e[0]]++
		d.preds[d.predOff[e[1]]] = e[0]
		d.predOff[e[1]]++
	}
	copy(d.predOff[1:], d.predOff[:n])
	copy(d.succOff[1:], d.succOff[:n])
	d.predOff[0], d.succOff[0] = 0, 0
	for _, v := range outputs {
		d.check(v)
	}
	return d
}

// Len returns the number of vertices.
func (d *DAG) Len() int { return len(d.predOff) - 1 }

// Label returns the vertex name, or its number if unnamed.
func (d *DAG) Label(v int) string {
	if d.name != nil {
		return d.name(v)
	}
	return fmt.Sprintf("v%d", v)
}

// Preds returns the operand vertices of v (shared slice; do not modify).
func (d *DAG) Preds(v int) []int {
	return d.preds[d.predOff[v]:d.predOff[v+1]:d.predOff[v+1]]
}

// Succs returns the consumers of v (shared slice; do not modify).
func (d *DAG) Succs(v int) []int {
	return d.succs[d.succOff[v]:d.succOff[v+1]:d.succOff[v+1]]
}

// Outputs returns the declared result vertices.
func (d *DAG) Outputs() []int { return d.outputs }

// IsInput reports whether v has no predecessors.
func (d *DAG) IsInput(v int) bool { return d.predOff[v] == d.predOff[v+1] }

// Inputs returns all vertices with no predecessors.
func (d *DAG) Inputs() []int {
	var ins []int
	for v := range d.Len() {
		if d.IsInput(v) {
			ins = append(ins, v)
		}
	}
	return ins
}

// MaxInDegree returns the largest predecessor count, which lower-bounds the
// red pebbles any schedule needs (S ≥ MaxInDegree + 1).
func (d *DAG) MaxInDegree() int {
	worst := 0
	for v := range d.Len() {
		worst = max(worst, d.predOff[v+1]-d.predOff[v])
	}
	return worst
}

// TopoOrder returns a topological ordering, or an error if the graph has a
// cycle.
func (d *DAG) TopoOrder() ([]int, error) {
	n := d.Len()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(d.Preds(v))
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range d.Succs(v) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("pebble: graph has a cycle (%d of %d ordered)", len(order), n)
	}
	return order, nil
}

func (d *DAG) check(v int) {
	if v < 0 || v >= d.Len() {
		panic(fmt.Sprintf("pebble: vertex %d out of range [0,%d)", v, d.Len()))
	}
}
