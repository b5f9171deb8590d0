package pebble

import (
	"testing"
	"testing/quick"
)

func TestDAGBasics(t *testing.T) {
	d := newDAG(4, [][2]int{{0, 2}, {1, 2}, {2, 3}}, []int{3}, nil)
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if !d.IsInput(0) || !d.IsInput(1) || d.IsInput(2) {
		t.Error("input detection wrong")
	}
	if got := d.MaxInDegree(); got != 2 {
		t.Errorf("MaxInDegree = %d, want 2", got)
	}
	if got := len(d.Inputs()); got != 2 {
		t.Errorf("Inputs count = %d, want 2", got)
	}
	if got := len(d.Outputs()); got != 1 {
		t.Errorf("Outputs count = %d, want 1", got)
	}
}

func TestTopoOrder(t *testing.T) {
	d := newDAG(5, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4}}, nil, nil)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < 5; v++ {
		for _, p := range d.Preds(v) {
			if pos[p] >= pos[v] {
				t.Errorf("topo order violates edge %d→%d", p, v)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	d := newDAG(3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, nil, nil)
	if _, err := d.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestDAGPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { newDAG(0, nil, nil, nil) },
		func() { newDAG(2, [][2]int{{0, 2}}, nil, nil) },
		func() { newDAG(2, [][2]int{{1, 1}}, nil, nil) },
		func() { newDAG(2, nil, []int{-1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFFTDAGShape(t *testing.T) {
	n := 8
	d, err := FFTDAG(n)
	if err != nil {
		t.Fatal(err)
	}
	// 3 levels above inputs: 4·8 = 32 vertices.
	if d.Len() != 32 {
		t.Fatalf("Len = %d, want 32", d.Len())
	}
	if got := len(d.Inputs()); got != n {
		t.Errorf("inputs = %d, want %d", got, n)
	}
	if got := len(d.Outputs()); got != n {
		t.Errorf("outputs = %d, want %d", got, n)
	}
	// Every non-input vertex has exactly 2 predecessors.
	for v := n; v < d.Len(); v++ {
		if got := len(d.Preds(v)); got != 2 {
			t.Errorf("vertex %d in-degree = %d, want 2", v, got)
		}
	}
	// Level-1 vertex 0 depends on inputs 0 and 1.
	p := d.Preds(FFTVertex(n, 1, 0))
	if !((p[0] == 0 && p[1] == 1) || (p[0] == 1 && p[1] == 0)) {
		t.Errorf("L1[0] preds = %v, want {0,1}", p)
	}
	// Level-2 vertex 0 depends on L1[0] and L1[2].
	p = d.Preds(FFTVertex(n, 2, 0))
	w0, w1 := FFTVertex(n, 1, 0), FFTVertex(n, 1, 2)
	if !((p[0] == w0 && p[1] == w1) || (p[0] == w1 && p[1] == w0)) {
		t.Errorf("L2[0] preds = %v, want {%d,%d}", p, w0, w1)
	}
	if _, err := FFTDAG(6); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestMatMulDAGShape(t *testing.T) {
	n := 3
	d, err := MatMulDAG(n)
	if err != nil {
		t.Fatal(err)
	}
	// 2n² inputs + n³ muls + n²(n-1) adds = 18 + 27 + 18 = 63.
	if d.Len() != 63 {
		t.Fatalf("Len = %d, want 63", d.Len())
	}
	if got := len(d.Inputs()); got != 2*n*n {
		t.Errorf("inputs = %d, want %d", got, 2*n*n)
	}
	if got := len(d.Outputs()); got != n*n {
		t.Errorf("outputs = %d, want %d", got, n*n)
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Errorf("matmul DAG not acyclic: %v", err)
	}
	// n=1 edge case: outputs are the products themselves.
	d1, err := MatMulDAG(1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != 3 || len(d1.Outputs()) != 1 {
		t.Errorf("n=1 DAG: len=%d outputs=%d", d1.Len(), len(d1.Outputs()))
	}
}

func TestStencil1DDAG(t *testing.T) {
	d, err := Stencil1DDAG(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Outputs()); got != 4 {
		t.Errorf("outputs = %d, want 4", got)
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Errorf("stencil DAG not acyclic: %v", err)
	}
	// Interior vertex at level 2 has 3 preds.
	if got := len(d.Preds(2*6 + 2)); got != 3 {
		t.Errorf("stencil in-degree = %d, want 3", got)
	}
	if _, err := Stencil1DDAG(2, 1); err == nil {
		t.Error("too-narrow stencil accepted")
	}
}

func TestChainDiamondTreeBuilders(t *testing.T) {
	ch, err := ChainDAG(5)
	if err != nil {
		t.Fatal(err)
	}
	if ch.MaxInDegree() != 1 || len(ch.Outputs()) != 1 {
		t.Error("chain shape wrong")
	}
	di, err := DiamondDAG(2)
	if err != nil {
		t.Fatal(err)
	}
	if di.Len() != 7 || di.MaxInDegree() != 2 {
		t.Errorf("diamond shape wrong: len=%d indeg=%d", di.Len(), di.MaxInDegree())
	}
	tr, err := BinaryTreeDAG(8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 15 || len(tr.Inputs()) != 8 {
		t.Errorf("tree shape wrong: len=%d inputs=%d", tr.Len(), len(tr.Inputs()))
	}
	if _, err := BinaryTreeDAG(3); err == nil {
		t.Error("non-power-of-two leaves accepted")
	}
}

// Property: in every FFTDAG, each level is a perfect matching of butterfly
// pairs — each level-l vertex shares its two predecessors with exactly one
// sibling.
func TestFFTButterflyPairingProperty(t *testing.T) {
	f := func(p8 uint8) bool {
		n := 1 << (1 + p8%5) // 2..32
		d, err := FFTDAG(n)
		if err != nil {
			return false
		}
		levels := 0
		for v := n; v > 1; v >>= 1 {
			levels++
		}
		for l := 1; l <= levels; l++ {
			bit := 1 << (l - 1)
			for i := 0; i < n; i++ {
				sib := i ^ bit
				a, b := d.Preds(FFTVertex(n, l, i)), d.Preds(FFTVertex(n, l, sib))
				if len(a) != 2 || len(b) != 2 {
					return false
				}
				if !(a[0] == b[0] && a[1] == b[1] || a[0] == b[1] && a[1] == b[0]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStencil2DDAG(t *testing.T) {
	d, err := Stencil2DDAG(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interior is 3×3 = 9 outputs.
	if got := len(d.Outputs()); got != 9 {
		t.Errorf("outputs = %d, want 9", got)
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Errorf("2-D stencil DAG not acyclic: %v", err)
	}
	// Interior vertex at level 2 has 5 preds.
	if got := len(d.Preds(2*25 + 2*5 + 2)); got != 5 {
		t.Errorf("in-degree = %d, want 5", got)
	}
	if _, err := Stencil2DDAG(2, 1); err == nil {
		t.Error("too-small grid accepted")
	}
	if _, err := Stencil2DDAG(5, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

// TestStencil2DGreedyPebbling: the greedy scheduler handles the 5-point
// stencil legally, and more memory reduces I/O (tile reuse emerging from
// Belady eviction).
func TestStencil2DGreedyPebbling(t *testing.T) {
	d, err := Stencil2DDAG(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := int(^uint(0) >> 1)
	for _, s := range []int{6, 16, 64} {
		sched, err := GreedySchedule(d, s)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		res, err := Execute(d, s, sched)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if res.IO() > prev {
			t.Errorf("s=%d: IO %d worse than smaller memory %d", s, res.IO(), prev)
		}
		prev = res.IO()
	}
}
