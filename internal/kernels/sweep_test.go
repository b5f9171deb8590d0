package kernels

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"balarch/internal/engine"
	"balarch/internal/opcount"
)

func TestSweepPointsInOrder(t *testing.T) {
	params := []int{1, 2, 3, 4, 5, 6, 7, 8}
	pts, err := Sweep(context.Background(), params,
		func(_ context.Context, p int) (RatioPoint, error) {
			return RatioPoint{Memory: 10 * p, Totals: opcount.Totals{Ops: uint64(p), Reads: uint64(2 * p), Writes: 1}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(params) {
		t.Fatalf("%d points for %d params", len(pts), len(params))
	}
	for i, p := range params {
		if pts[i].Memory != 10*p {
			t.Errorf("point %d memory = %d, want %d", i, pts[i].Memory, 10*p)
		}
		if pts[i].Totals.Ops != uint64(p) || pts[i].Totals.Reads != uint64(2*p) {
			t.Errorf("point %d totals = %+v", i, pts[i].Totals)
		}
	}
}

// TestSweepSerialParallelIdentical: the driver's output must not depend on
// the worker count.
func TestSweepSerialParallelIdentical(t *testing.T) {
	blocks := []int{4, 8, 16, 32, 64}
	sweep := func(par int) ([]RatioPoint, error) {
		return countSweep(engine.WithParallelism(context.Background(), par), blocks,
			func(bs int) MatMulSpec { return MatMulSpec{N: 512, Block: bs} }, CountBlockedMatMul)
	}
	serialPts, err := sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	parPts, err := sweep(8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(serialPts) != fmt.Sprint(parPts) {
		t.Errorf("parallel sweep differs from serial:\n%v\n%v", serialPts, parPts)
	}
}

func TestSweepPropagatesError(t *testing.T) {
	boom := errors.New("bad point")
	pts, err := Sweep(context.Background(), []int{1, 2, 3},
		func(_ context.Context, p int) (RatioPoint, error) {
			if p == 2 {
				return RatioPoint{}, boom
			}
			return RatioPoint{Memory: p, Totals: opcount.Totals{Ops: 1, Reads: 1}}, nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the point error", err)
	}
	if pts != nil {
		t.Errorf("points = %v on error, want nil", pts)
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, []int{1, 2, 3},
		func(ctx context.Context, p int) (RatioPoint, error) {
			if err := ctx.Err(); err != nil {
				return RatioPoint{}, err
			}
			return RatioPoint{Memory: p, Totals: opcount.Totals{Ops: 1, Reads: 1}}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
