package pebble

// The append-built DAG and builders that the CSR form replaced, kept
// verbatim (renamed) as the reference for TestCSRMatchesAppendOrder.

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// TestCSRMatchesAppendOrder: for every builder at several sizes, the CSR
// graph's Preds, Succs, Inputs, Outputs and Label equal those of the
// append-built reference, vertex by vertex and in order, so schedules and
// Execute's error text cannot change.
func TestCSRMatchesAppendOrder(t *testing.T) {
	type pair struct {
		name string
		got  *DAG
		want *refDAG
	}
	var pairs []pair
	add := func(name string, got *DAG, err error, want *refDAG, werr error) {
		if err != nil || werr != nil {
			t.Fatalf("%s: %v / %v", name, err, werr)
		}
		pairs = append(pairs, pair{name: name, got: got, want: want})
	}
	for _, n := range []int{2, 4, 16, 64} {
		g, err := FFTDAG(n)
		w, werr := refFFTDAG(n)
		add(fmt.Sprintf("fft(%d)", n), g, err, w, werr)
	}
	for _, n := range []int{1, 2, 3, 5} {
		g, err := MatMulDAG(n)
		w, werr := refMatMulDAG(n)
		add(fmt.Sprintf("matmul(%d)", n), g, err, w, werr)
	}
	for _, nt := range [][2]int{{3, 1}, {6, 3}, {9, 2}} {
		g, err := Stencil1DDAG(nt[0], nt[1])
		w, werr := refStencil1DDAG(nt[0], nt[1])
		add(fmt.Sprintf("stencil(%d,%d)", nt[0], nt[1]), g, err, w, werr)
		g, err = Stencil2DDAG(nt[0], nt[1])
		w, werr = refStencil2DDAG(nt[0], nt[1])
		add(fmt.Sprintf("stencil2d(%d,%d)", nt[0], nt[1]), g, err, w, werr)
	}
	for _, n := range []int{1, 2, 5} {
		g, err := DiamondDAG(n)
		w, werr := refDiamondDAG(n)
		add(fmt.Sprintf("diamond(%d)", n), g, err, w, werr)
		g, err = ChainDAG(n)
		w, werr = refChainDAG(n)
		add(fmt.Sprintf("chain(%d)", n), g, err, w, werr)
	}
	for _, n := range []int{2, 8, 32} {
		g, err := BinaryTreeDAG(n)
		w, werr := refBinaryTreeDAG(n)
		add(fmt.Sprintf("tree(%d)", n), g, err, w, werr)
	}
	for _, p := range pairs {
		g, w := p.got, p.want
		if g.Len() != w.Len() {
			t.Fatalf("%s: %d vertices, reference %d", p.name, g.Len(), w.Len())
		}
		for v := range g.Len() {
			if !slices.Equal(g.Preds(v), w.Preds(v)) || !slices.Equal(g.Succs(v), w.Succs(v)) {
				t.Fatalf("%s vertex %d: preds %v succs %v, reference %v %v",
					p.name, v, g.Preds(v), g.Succs(v), w.Preds(v), w.Succs(v))
			}
			if g.Label(v) != w.Label(v) {
				t.Fatalf("%s vertex %d: label %q, reference %q", p.name, v, g.Label(v), w.Label(v))
			}
		}
		if !slices.Equal(g.Inputs(), w.Inputs()) || !slices.Equal(g.Outputs(), w.Outputs()) {
			t.Fatalf("%s: inputs %v outputs %v, reference %v %v", p.name, g.Inputs(), g.Outputs(), w.Inputs(), w.Outputs())
		}
	}
}

// refDAG is a directed acyclic computation graph. Vertices are numbered 0..n-1
// and every edge points from an operand to the operation consuming it.
// Inputs (no predecessors) start the game with blue pebbles.
type refDAG struct {
	preds   [][]int
	succs   [][]int
	outputs []int
	labels  []string
}

// newRefDAG creates a graph with n isolated vertices.
func newRefDAG(n int) *refDAG {
	if n <= 0 {
		panic(fmt.Sprintf("pebble: DAG size %d must be positive", n))
	}
	return &refDAG{
		preds:  make([][]int, n),
		succs:  make([][]int, n),
		labels: make([]string, n),
	}
}

// Len returns the number of vertices.
func (d *refDAG) Len() int { return len(d.preds) }

// AddEdge records that vertex to consumes the value of vertex from.
func (d *refDAG) AddEdge(from, to int) {
	d.check(from)
	d.check(to)
	if from == to {
		panic(fmt.Sprintf("pebble: self edge at %d", from))
	}
	d.preds[to] = append(d.preds[to], from)
	d.succs[from] = append(d.succs[from], to)
}

// MarkOutput declares v a result that must end the game with a blue pebble.
func (d *refDAG) MarkOutput(v int) {
	d.check(v)
	d.outputs = append(d.outputs, v)
}

// SetLabel attaches a human-readable name to v for diagnostics.
func (d *refDAG) SetLabel(v int, label string) {
	d.check(v)
	d.labels[v] = label
}

// Label returns the vertex name, or its number if unnamed.
func (d *refDAG) Label(v int) string {
	if d.labels[v] != "" {
		return d.labels[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Preds returns the operand vertices of v (shared slice; do not modify).
func (d *refDAG) Preds(v int) []int { return d.preds[v] }

// Succs returns the consumers of v (shared slice; do not modify).
func (d *refDAG) Succs(v int) []int { return d.succs[v] }

// Outputs returns the declared result vertices.
func (d *refDAG) Outputs() []int { return d.outputs }

// IsInput reports whether v has no predecessors.
func (d *refDAG) IsInput(v int) bool { return len(d.preds[v]) == 0 }

// Inputs returns all vertices with no predecessors.
func (d *refDAG) Inputs() []int {
	var ins []int
	for v := range d.preds {
		if len(d.preds[v]) == 0 {
			ins = append(ins, v)
		}
	}
	return ins
}

func (d *refDAG) check(v int) {
	if v < 0 || v >= d.Len() {
		panic(fmt.Sprintf("pebble: vertex %d out of range [0,%d)", v, d.Len()))
	}
}

// refFFTDAG builds the n-point radix-2 butterfly network: log₂n levels of n
// vertices above a level of n inputs. Level-l vertex i depends on level-l-1
// vertices i and i XOR 2^(l-1), the same pairing the kernels package
// executes. Vertex id = level·n + i; the last level is the output set.
func refFFTDAG(n int) (*refDAG, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("pebble: FFT size %d must be a power of two ≥ 2", n)
	}
	levels := bits.TrailingZeros(uint(n))
	d := newRefDAG((levels + 1) * n)
	for l := 1; l <= levels; l++ {
		bit := 1 << (l - 1)
		for i := 0; i < n; i++ {
			v := l*n + i
			d.AddEdge((l-1)*n+i, v)
			d.AddEdge((l-1)*n+(i^bit), v)
			d.SetLabel(v, fmt.Sprintf("L%d[%d]", l, i))
		}
	}
	for i := 0; i < n; i++ {
		d.SetLabel(i, fmt.Sprintf("in[%d]", i))
		d.MarkOutput(levels*n + i)
	}
	return d, nil
}

// refMatMulDAG builds the n×n matrix product graph: 2n² input vertices (the
// elements of A and B), n³ multiplication vertices, and per output element a
// chain of n-1 additions accumulating the products; the final addition of
// each chain is an output (for n = 1 the single product is the output).
func refMatMulDAG(n int) (*refDAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("pebble: matmul size %d must be ≥ 1", n)
	}
	nn := n * n
	numMul := n * nn
	numAdd := nn * (n - 1)
	d := newRefDAG(2*nn + numMul + numAdd)
	aBase, bBase := 0, nn
	mulBase := 2 * nn
	addBase := mulBase + numMul
	aAt := func(i, k int) int { return aBase + i*n + k }
	bAt := func(k, j int) int { return bBase + k*n + j }
	mulAt := func(i, j, k int) int { return mulBase + (i*n+j)*n + k }
	addAt := func(i, j, k int) int { return addBase + (i*n+j)*(n-1) + (k - 1) }

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				m := mulAt(i, j, k)
				d.AddEdge(aAt(i, k), m)
				d.AddEdge(bAt(k, j), m)
				d.SetLabel(m, fmt.Sprintf("a%d%d*b%d%d", i, k, k, j))
			}
			if n == 1 {
				d.MarkOutput(mulAt(i, j, 0))
				continue
			}
			// Accumulation chain: add_1 = mul_0 + mul_1,
			// add_k = add_{k-1} + mul_k.
			d.AddEdge(mulAt(i, j, 0), addAt(i, j, 1))
			d.AddEdge(mulAt(i, j, 1), addAt(i, j, 1))
			for k := 2; k < n; k++ {
				d.AddEdge(addAt(i, j, k-1), addAt(i, j, k))
				d.AddEdge(mulAt(i, j, k), addAt(i, j, k))
			}
			d.MarkOutput(addAt(i, j, n-1))
		}
	}
	return d, nil
}

// refStencil1DDAG builds t iterations of a 3-point stencil over n points with
// fixed boundary: iteration l point i (1 ≤ i ≤ n-2) depends on iteration
// l-1 points i-1, i, i+1; boundary columns copy forward as inputs reused at
// every level (modeled by edges from the original boundary inputs). The last
// iteration's interior points are outputs.
func refStencil1DDAG(n, t int) (*refDAG, error) {
	if n < 3 {
		return nil, fmt.Errorf("pebble: stencil width %d must be ≥ 3", n)
	}
	if t < 1 {
		return nil, fmt.Errorf("pebble: stencil iterations %d must be ≥ 1", t)
	}
	// Vertex (l, i) = l*n + i; level 0 are inputs. Boundary points exist
	// only at level 0.
	id := func(l, i int) int {
		if i == 0 || i == n-1 {
			return i // boundary: always the level-0 vertex
		}
		return l*n + i
	}
	d := newRefDAG((t + 1) * n) // boundary slots above level 0 stay isolated inputs? no: unused ids avoided below
	for l := 1; l <= t; l++ {
		for i := 1; i < n-1; i++ {
			v := l*n + i
			d.AddEdge(id(l-1, i-1), v)
			d.AddEdge(id(l-1, i), v)
			d.AddEdge(id(l-1, i+1), v)
		}
	}
	for i := 1; i < n-1; i++ {
		d.MarkOutput(t*n + i)
	}
	return d, nil
}

// refStencil2DDAG builds t iterations of a 5-point stencil over an n×n grid
// with fixed boundary: iteration l point (i,j) depends on iteration l-1
// points (i,j), (i±1,j), (i,j±1); boundary points exist only at level 0 and
// feed every level. The last iteration's interior is the output set — the
// DAG form of the §3.3 two-dimensional grid computation.
func refStencil2DDAG(n, t int) (*refDAG, error) {
	if n < 3 {
		return nil, fmt.Errorf("pebble: 2-D stencil side %d must be ≥ 3", n)
	}
	if t < 1 {
		return nil, fmt.Errorf("pebble: 2-D stencil iterations %d must be ≥ 1", t)
	}
	id := func(l, i, j int) int {
		if i == 0 || i == n-1 || j == 0 || j == n-1 {
			return i*n + j // boundary: always the level-0 vertex
		}
		return l*n*n + i*n + j
	}
	d := newRefDAG((t + 1) * n * n)
	for l := 1; l <= t; l++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				v := l*n*n + i*n + j
				d.AddEdge(id(l-1, i, j), v)
				d.AddEdge(id(l-1, i-1, j), v)
				d.AddEdge(id(l-1, i+1, j), v)
				d.AddEdge(id(l-1, i, j-1), v)
				d.AddEdge(id(l-1, i, j+1), v)
			}
		}
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			d.MarkOutput(t*n*n + i*n + j)
		}
	}
	return d, nil
}

// refDiamondDAG builds a width-2 diamond of the given depth: one source fans
// out to two parallel chains that re-converge at a sink every level —
// a minimal DAG with non-trivial optimal pebblings, used by the exhaustive
// search tests.
func refDiamondDAG(depth int) (*refDAG, error) {
	if depth < 1 {
		return nil, fmt.Errorf("pebble: diamond depth %d must be ≥ 1", depth)
	}
	// Vertices: 0 source; per level l ∈ [0,depth): left=1+3l, right=2+3l,
	// join=3+3l.
	d := newRefDAG(1 + 3*depth)
	prev := 0
	for l := 0; l < depth; l++ {
		left, right, join := 1+3*l, 2+3*l, 3+3*l
		d.AddEdge(prev, left)
		d.AddEdge(prev, right)
		d.AddEdge(left, join)
		d.AddEdge(right, join)
		prev = join
	}
	d.MarkOutput(prev)
	return d, nil
}

// refChainDAG builds a simple path of n vertices; the last is the output. Any
// S ≥ 2 pebbles it with exactly 1 input + 1 output I/O.
func refChainDAG(n int) (*refDAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("pebble: chain length %d must be ≥ 1", n)
	}
	d := newRefDAG(n)
	for v := 1; v < n; v++ {
		d.AddEdge(v-1, v)
	}
	d.MarkOutput(n - 1)
	return d, nil
}

// refBinaryTreeDAG builds a complete binary reduction tree with the given
// number of leaves (a power of two); the root is the output.
func refBinaryTreeDAG(leaves int) (*refDAG, error) {
	if leaves < 2 || bits.OnesCount(uint(leaves)) != 1 {
		return nil, fmt.Errorf("pebble: leaves %d must be a power of two ≥ 2", leaves)
	}
	total := 2*leaves - 1
	d := newRefDAG(total)
	// Heap layout: node v has children 2v+1, 2v+2; leaves occupy the tail.
	for v := 0; v < leaves-1; v++ {
		d.AddEdge(2*v+1, v)
		d.AddEdge(2*v+2, v)
	}
	d.MarkOutput(0)
	return d, nil
}
