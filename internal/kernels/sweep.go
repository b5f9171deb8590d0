package kernels

import (
	"context"

	"balarch/internal/engine"
	"balarch/internal/opcount"
)

// Sweep is the one ratio-sweep driver every kernel shares: it measures one
// RatioPoint per parameter, fanning the points out across engine workers.
// The sweep points are independent subcomputations in the paper's §4 sense,
// so each point is a value its own job computes: the local memory
// footprint (in words) the point represents and its exact operation and
// I/O totals. Points come back in params order, so a parallel sweep is
// byte-identical to a serial one.
func Sweep[P any](ctx context.Context, params []P, measure func(ctx context.Context, p P) (RatioPoint, error)) ([]RatioPoint, error) {
	jobs := make([]engine.Job[RatioPoint], len(params))
	for i, p := range params {
		jobs[i] = engine.Job[RatioPoint]{Run: func(ctx context.Context) (RatioPoint, error) {
			return measure(ctx, p)
		}}
	}
	var pool engine.Pool[RatioPoint] // parallelism inherited from ctx
	pts, err := pool.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// countSweep is Sweep over a closed-form kernel: each point is its spec's
// memory footprint and the spec's counted totals.
func countSweep[S interface{ Memory() int }](ctx context.Context, params []int, spec func(p int) S, count func(S) (opcount.Totals, error)) ([]RatioPoint, error) {
	return Sweep(ctx, params, func(_ context.Context, p int) (RatioPoint, error) {
		s := spec(p)
		t, err := count(s)
		if err != nil {
			return RatioPoint{}, err
		}
		return RatioPoint{Memory: s.Memory(), Totals: t}, nil
	})
}
