package kernels

import (
	"context"
	"fmt"
	"math/bits"

	"balarch/internal/opcount"
)

// StrassenSpec describes a communication-avoiding Strassen multiplication —
// an extension in the §5 direction showing that *sub-cubic* algorithms obey
// a different balance law than the paper's α² for classical matmul.
//
// The recursion splits the N×N product into 7 half-size products connected
// by 18 streamed matrix additions until a subproblem's operands fit local
// memory (leaf side L, M = 3L²); leaves load their operands, multiply with
// in-memory Strassen, and store. The achievable ratio is
//
//	R(M) = Θ(M^(lg7/2 − 1)) = Θ(M^0.4037...)
//
// so rebalancing after an α increase needs M_new ≈ α^2.477·M_old — a
// *steeper* memory demand than classical matmul's α²: doing asymptotically
// less arithmetic per word leaves less slack for the balance condition.
type StrassenSpec struct {
	// N is the matrix dimension; a power of two.
	N int
	// Leaf is the subproblem side at which recursion stops; a power of
	// two in [1, N].
	Leaf int
}

// Validate checks the spec's invariants.
func (s StrassenSpec) Validate() error {
	if s.N < 1 || bits.OnesCount(uint(s.N)) != 1 {
		return fmt.Errorf("kernels: strassen N=%d must be a power of two ≥ 1", s.N)
	}
	if s.Leaf < 1 || bits.OnesCount(uint(s.Leaf)) != 1 || s.Leaf > s.N {
		return fmt.Errorf("kernels: strassen leaf=%d must be a power of two in [1, N=%d]", s.Leaf, s.N)
	}
	return nil
}

// Memory returns the local memory footprint in words: two operand blocks
// and the result block at the leaf.
func (s StrassenSpec) Memory() int { return 3 * s.Leaf * s.Leaf }

// CAStrassen multiplies a × b with the communication-avoiding Strassen
// scheme, counting every flop and every word that crosses the local-memory
// boundary: streamed additions read their two addends and write their sum;
// leaves read two blocks and write one. Quadrant addressing is free.
func CAStrassen(spec StrassenSpec, a, b *Dense, c *opcount.Counter) (*Dense, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if a.Rows != spec.N || a.Cols != spec.N || b.Rows != spec.N || b.Cols != spec.N {
		return nil, fmt.Errorf("kernels: strassen operands must be %d×%d", spec.N, spec.N)
	}
	return caStrassenRec(spec.Leaf, a, b, c), nil
}

func caStrassenRec(leaf int, a, b *Dense, c *opcount.Counter) *Dense {
	n := a.Rows
	if n <= leaf {
		c.Read(2 * n * n)
		out := strassenLocal(a, b, c)
		c.Write(n * n)
		return out
	}
	q := n / 2
	a11, a12, a21, a22 := quad(a, 0, 0), quad(a, 0, q), quad(a, q, 0), quad(a, q, q)
	b11, b12, b21, b22 := quad(b, 0, 0), quad(b, 0, q), quad(b, q, 0), quad(b, q, q)

	add := func(x, y *Dense, sub bool) *Dense { return streamedAdd(x, y, sub, c) }

	p1 := caStrassenRec(leaf, add(a11, a22, false), add(b11, b22, false), c)
	p2 := caStrassenRec(leaf, add(a21, a22, false), b11, c)
	p3 := caStrassenRec(leaf, a11, add(b12, b22, true), c)
	p4 := caStrassenRec(leaf, a22, add(b21, b11, true), c)
	p5 := caStrassenRec(leaf, add(a11, a12, false), b22, c)
	p6 := caStrassenRec(leaf, add(a21, a11, true), add(b11, b12, false), c)
	p7 := caStrassenRec(leaf, add(a12, a22, true), add(b21, b22, false), c)

	// C11 = P1 + P4 − P5 + P7; C12 = P3 + P5; C21 = P2 + P4;
	// C22 = P1 − P2 + P3 + P6 — eight streamed binary additions.
	c11 := add(add(add(p1, p4, false), p5, true), p7, false)
	c12 := add(p3, p5, false)
	c21 := add(p2, p4, false)
	c22 := add(add(add(p1, p2, true), p3, false), p6, false)

	out := NewDense(n, n)
	pasteQuad(out, c11, 0, 0)
	pasteQuad(out, c12, 0, q)
	pasteQuad(out, c21, q, 0)
	pasteQuad(out, c22, q, q)
	return out
}

// streamedAdd computes x ± y as an out-of-core stream: read both operands,
// one flop per element, write the result.
func streamedAdd(x, y *Dense, sub bool, c *opcount.Counter) *Dense {
	out := NewDense(x.Rows, x.Cols)
	for i, v := range x.Data {
		if sub {
			out.Data[i] = v - y.Data[i]
		} else {
			out.Data[i] = v + y.Data[i]
		}
	}
	c.Read(2 * len(x.Data))
	c.Ops(len(x.Data))
	c.Write(len(x.Data))
	return out
}

// quad copies the q×q quadrant at (r0, c0) — pure addressing, no counts.
func quad(m *Dense, r0, c0 int) *Dense {
	q := m.Rows / 2
	out := NewDense(q, q)
	for i := 0; i < q; i++ {
		copy(out.Data[i*q:(i+1)*q], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+q])
	}
	return out
}

func pasteQuad(dst, src *Dense, r0, c0 int) {
	q := src.Rows
	for i := 0; i < q; i++ {
		copy(dst.Data[(r0+i)*dst.Cols+c0:(r0+i)*dst.Cols+c0+q], src.Data[i*q:(i+1)*q])
	}
}

// strassenLocal multiplies entirely inside local memory with recursive
// Strassen down to 1×1, counting flops only (no I/O: everything is
// resident). Its flop count is S(n) = 7·S(n/2) + 18·(n/2)², S(1) = 1.
func strassenLocal(a, b *Dense, c *opcount.Counter) *Dense {
	n := a.Rows
	if n == 1 {
		c.Ops(1)
		out := NewDense(1, 1)
		out.Data[0] = a.Data[0] * b.Data[0]
		return out
	}
	q := n / 2
	a11, a12, a21, a22 := quad(a, 0, 0), quad(a, 0, q), quad(a, q, 0), quad(a, q, q)
	b11, b12, b21, b22 := quad(b, 0, 0), quad(b, 0, q), quad(b, q, 0), quad(b, q, q)

	add := func(x, y *Dense, sub bool) *Dense {
		out := NewDense(q, q)
		for i, v := range x.Data {
			if sub {
				out.Data[i] = v - y.Data[i]
			} else {
				out.Data[i] = v + y.Data[i]
			}
		}
		c.Ops(q * q)
		return out
	}

	p1 := strassenLocal(add(a11, a22, false), add(b11, b22, false), c)
	p2 := strassenLocal(add(a21, a22, false), b11, c)
	p3 := strassenLocal(a11, add(b12, b22, true), c)
	p4 := strassenLocal(a22, add(b21, b11, true), c)
	p5 := strassenLocal(add(a11, a12, false), b22, c)
	p6 := strassenLocal(add(a21, a11, true), add(b11, b12, false), c)
	p7 := strassenLocal(add(a12, a22, true), add(b21, b22, false), c)

	c11 := add(add(add(p1, p4, false), p5, true), p7, false)
	c12 := add(p3, p5, false)
	c21 := add(p2, p4, false)
	c22 := add(add(add(p1, p2, true), p3, false), p6, false)

	out := NewDense(n, n)
	pasteQuad(out, c11, 0, 0)
	pasteQuad(out, c12, 0, q)
	pasteQuad(out, c21, q, 0)
	pasteQuad(out, c22, q, q)
	return out
}

// strassenLocalOps returns S(n), the flop count of strassenLocal.
func strassenLocalOps(n int) uint64 {
	if n == 1 {
		return 1
	}
	q := uint64(n / 2)
	return 7*strassenLocalOps(n/2) + 18*q*q
}

// CountCAStrassen returns the counts CAStrassen would record, computed from
// the recursion's closed form in O(log(N/Leaf)) time: at level k there are
// 7^k nodes each performing 18 streamed additions of (n/2^(k+1))² elements,
// and 7^levels leaves each loading 2·Leaf² words, spending S(Leaf) flops,
// and storing Leaf² words.
func CountCAStrassen(spec StrassenSpec) (opcount.Totals, error) {
	if err := spec.Validate(); err != nil {
		return opcount.Totals{}, err
	}
	var t opcount.Totals
	nodes := uint64(1)
	size := spec.N
	for size > spec.Leaf {
		q := uint64(size / 2)
		adds := nodes * 18
		t.Reads += adds * 2 * q * q
		t.Ops += adds * q * q
		t.Writes += adds * q * q
		nodes *= 7
		size /= 2
	}
	leafSq := uint64(spec.Leaf) * uint64(spec.Leaf)
	t.Reads += nodes * 2 * leafSq
	t.Ops += nodes * strassenLocalOps(spec.Leaf)
	t.Writes += nodes * leafSq
	return t, nil
}

// StrassenRatioSweep measures the CA-Strassen ratio across leaf sizes at
// fixed N for the X4 experiment. Points run in parallel via Sweep.
func StrassenRatioSweep(ctx context.Context, n int, leaves []int) ([]RatioPoint, error) {
	return countSweep(ctx, leaves, func(l int) StrassenSpec { return StrassenSpec{N: n, Leaf: l} }, CountCAStrassen)
}
