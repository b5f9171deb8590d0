package pebble

import (
	"fmt"
	"math/bits"
)

// FFTDAG builds the n-point radix-2 butterfly network: log₂n levels of n
// vertices above a level of n inputs. Level-l vertex i depends on level-l-1
// vertices i and i XOR 2^(l-1), the same pairing the kernels package
// executes. Vertex id = level·n + i; the last level is the output set.
func FFTDAG(n int) (*DAG, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("pebble: FFT size %d must be a power of two ≥ 2", n)
	}
	levels := bits.TrailingZeros(uint(n))
	edges := make([][2]int, 0, 2*levels*n)
	for l := 1; l <= levels; l++ {
		bit := 1 << (l - 1)
		for i := 0; i < n; i++ {
			v := l*n + i
			edges = append(edges, [2]int{(l-1)*n + i, v}, [2]int{(l-1)*n + (i ^ bit), v})
		}
	}
	outputs := make([]int, n)
	for i := range outputs {
		outputs[i] = levels*n + i
	}
	name := func(v int) string {
		if v < n {
			return fmt.Sprintf("in[%d]", v)
		}
		return fmt.Sprintf("L%d[%d]", v/n, v%n)
	}
	return newDAG((levels+1)*n, edges, outputs, name), nil
}

// FFTVertex returns the vertex id of level l, index i in an n-point FFTDAG.
func FFTVertex(n, l, i int) int { return l*n + i }

// MatMulDAG builds the n×n matrix product graph: 2n² input vertices (the
// elements of A and B), n³ multiplication vertices, and per output element a
// chain of n-1 additions accumulating the products; the final addition of
// each chain is an output (for n = 1 the single product is the output).
func MatMulDAG(n int) (*DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("pebble: matmul size %d must be ≥ 1", n)
	}
	nn := n * n
	numMul := n * nn
	numAdd := nn * (n - 1)
	aBase, bBase := 0, nn
	mulBase := 2 * nn
	addBase := mulBase + numMul
	aAt := func(i, k int) int { return aBase + i*n + k }
	bAt := func(k, j int) int { return bBase + k*n + j }
	mulAt := func(i, j, k int) int { return mulBase + (i*n+j)*n + k }
	addAt := func(i, j, k int) int { return addBase + (i*n+j)*(n-1) + (k - 1) }

	edges := make([][2]int, 0, 2*numMul+2*numAdd)
	outputs := make([]int, 0, nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				m := mulAt(i, j, k)
				edges = append(edges, [2]int{aAt(i, k), m}, [2]int{bAt(k, j), m})
			}
			if n == 1 {
				outputs = append(outputs, mulAt(i, j, 0))
				continue
			}
			// Accumulation chain: add_1 = mul_0 + mul_1,
			// add_k = add_{k-1} + mul_k.
			edges = append(edges,
				[2]int{mulAt(i, j, 0), addAt(i, j, 1)},
				[2]int{mulAt(i, j, 1), addAt(i, j, 1)})
			for k := 2; k < n; k++ {
				edges = append(edges,
					[2]int{addAt(i, j, k-1), addAt(i, j, k)},
					[2]int{mulAt(i, j, k), addAt(i, j, k)})
			}
			outputs = append(outputs, addAt(i, j, n-1))
		}
	}
	// Products are named after their operands; inputs and additions by
	// number.
	name := func(v int) string {
		if v < mulBase || v >= addBase {
			return fmt.Sprintf("v%d", v)
		}
		i, j, k := (v-mulBase)/nn, (v-mulBase)/n%n, (v-mulBase)%n
		return fmt.Sprintf("a%d%d*b%d%d", i, k, k, j)
	}
	return newDAG(2*nn+numMul+numAdd, edges, outputs, name), nil
}

// Stencil1DDAG builds t iterations of a 3-point stencil over n points with
// fixed boundary: iteration l point i (1 ≤ i ≤ n-2) depends on iteration
// l-1 points i-1, i, i+1; boundary columns copy forward as inputs reused at
// every level (modeled by edges from the original boundary inputs). The last
// iteration's interior points are outputs.
func Stencil1DDAG(n, t int) (*DAG, error) {
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
	edges := make([][2]int, 0, 3*t*(n-2))
	for l := 1; l <= t; l++ {
		for i := 1; i < n-1; i++ {
			v := l*n + i
			edges = append(edges, [2]int{id(l-1, i-1), v}, [2]int{id(l-1, i), v}, [2]int{id(l-1, i+1), v})
		}
	}
	outputs := make([]int, 0, n-2)
	for i := 1; i < n-1; i++ {
		outputs = append(outputs, t*n+i)
	}
	// The boundary slots above level 0 get no edges: they are isolated
	// inputs that nothing reads.
	return newDAG((t+1)*n, edges, outputs, nil), nil
}

// Stencil2DDAG builds t iterations of a 5-point stencil over an n×n grid
// with fixed boundary: iteration l point (i,j) depends on iteration l-1
// points (i,j), (i±1,j), (i,j±1); boundary points exist only at level 0 and
// feed every level. The last iteration's interior is the output set — the
// DAG form of the §3.3 two-dimensional grid computation.
func Stencil2DDAG(n, t int) (*DAG, error) {
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
	edges := make([][2]int, 0, 5*t*(n-2)*(n-2))
	for l := 1; l <= t; l++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				v := l*n*n + i*n + j
				edges = append(edges,
					[2]int{id(l-1, i, j), v},
					[2]int{id(l-1, i-1, j), v},
					[2]int{id(l-1, i+1, j), v},
					[2]int{id(l-1, i, j-1), v},
					[2]int{id(l-1, i, j+1), v})
			}
		}
	}
	outputs := make([]int, 0, (n-2)*(n-2))
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			outputs = append(outputs, t*n*n+i*n+j)
		}
	}
	return newDAG((t+1)*n*n, edges, outputs, nil), nil
}

// DiamondDAG builds a width-2 diamond of the given depth: one source fans
// out to two parallel chains that re-converge at a sink every level —
// a minimal DAG with non-trivial optimal pebblings, used by the exhaustive
// search tests.
func DiamondDAG(depth int) (*DAG, error) {
	if depth < 1 {
		return nil, fmt.Errorf("pebble: diamond depth %d must be ≥ 1", depth)
	}
	// Vertices: 0 source; per level l ∈ [0,depth): left=1+3l, right=2+3l,
	// join=3+3l.
	edges := make([][2]int, 0, 4*depth)
	prev := 0
	for l := 0; l < depth; l++ {
		left, right, join := 1+3*l, 2+3*l, 3+3*l
		edges = append(edges, [2]int{prev, left}, [2]int{prev, right}, [2]int{left, join}, [2]int{right, join})
		prev = join
	}
	return newDAG(1+3*depth, edges, []int{prev}, nil), nil
}

// ChainDAG builds a simple path of n vertices; the last is the output. Any
// S ≥ 2 pebbles it with exactly 1 input + 1 output I/O.
func ChainDAG(n int) (*DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("pebble: chain length %d must be ≥ 1", n)
	}
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	return newDAG(n, edges, []int{n - 1}, nil), nil
}

// BinaryTreeDAG builds a complete binary reduction tree with the given
// number of leaves (a power of two); the root is the output.
func BinaryTreeDAG(leaves int) (*DAG, error) {
	if leaves < 2 || bits.OnesCount(uint(leaves)) != 1 {
		return nil, fmt.Errorf("pebble: leaves %d must be a power of two ≥ 2", leaves)
	}
	// Heap layout: node v has children 2v+1, 2v+2; leaves occupy the tail.
	edges := make([][2]int, 0, 2*(leaves-1))
	for v := 0; v < leaves-1; v++ {
		edges = append(edges, [2]int{2*v + 1, v}, [2]int{2*v + 2, v})
	}
	return newDAG(2*leaves-1, edges, []int{0}, nil), nil
}
