// Package engine is the concurrent experiment runner underneath the
// reproduction: a context-aware, cancellable worker pool with deterministic
// result ordering, plus a single-flight result cache (Cache) for callers
// that memoize whole computations.
//
// The design follows the paper's own decomposition argument (§4): the sweep
// points and experiments of this reproduction are independent subcomputations,
// so the harness fans them out across workers exactly as a processor array
// fans a computation across PEs, and merges their results in a fixed order so
// concurrency never changes observable output. Every layer of the repo runs on
// it: internal/kernels fans ratio-sweep points through a Pool, the
// internal/experiments registry fans whole experiments through a Pool, and
// cmd/experiments exposes the worker count as -parallel. Pools take their
// worker count, progress observer and span observer from the context
// (WithParallelism, WithProgress, WithSpanObserver), so the layers that run
// them need not know who is watching.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of work for a Pool.
type Job[T any] struct {
	// Run performs the work. It must honor ctx cancellation for the pool's
	// cancellation to be prompt, and must not retain ctx after returning.
	Run func(ctx context.Context) (T, error)
}

// Event is one progress notification: a job finished, successfully or
// not, as the Done-th of Total completions. Events are delivered serially,
// so Done increases monotonically.
type Event struct {
	Done  int
	Total int
}

// Pool runs a batch of jobs with bounded parallelism. The zero value is
// ready to use: GOMAXPROCS workers (or the context's parallelism, see
// WithParallelism).
type Pool[T any] struct {
	// Parallelism bounds the number of concurrently running jobs. Zero or
	// negative means "inherit": the context's parallelism if set via
	// WithParallelism, else GOMAXPROCS.
	Parallelism int
}

// Run executes jobs and returns their results in job order — result i is
// job i's, regardless of completion order — so parallel runs are
// byte-identical to serial ones for deterministic jobs. The first job error
// cancels the remaining jobs and is returned after all in-flight work
// drains; jobs skipped by the cancellation never start. If ctx is cancelled
// externally, Run returns ctx's cause. Each finished job is reported to the
// context's span observer and progress observer, if any.
func (p *Pool[T]) Run(ctx context.Context, jobs []Job[T]) ([]T, error) {
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	workers := p.Parallelism
	if workers <= 0 {
		workers = ParallelismFrom(ctx)
	}
	workers = min(workers, len(jobs))

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		wg       sync.WaitGroup
		progMu   sync.Mutex
		done     int
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel(err)
		})
	}
	onSpan := SpanObserverFrom(ctx)
	onProgress := ProgressFrom(ctx)
	finish := func() {
		if onProgress == nil {
			return
		}
		progMu.Lock()
		done++
		onProgress(Event{Done: done, Total: len(jobs)})
		progMu.Unlock()
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // cancelled: drain without starting new work
				}
				start := time.Now()
				v, err := jobs[i].Run(ctx)
				if err != nil {
					fail(err)
				} else {
					results[i] = v
				}
				if onSpan != nil {
					onSpan(time.Since(start))
				}
				finish()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return results, firstErr
	}
	if ctx.Err() != nil {
		// External cancellation: report the cause recorded on the context.
		return results, context.Cause(ctx)
	}
	return results, nil
}

// progressKey carries a progress observer through a context tree.
type progressKey struct{}

// WithProgress returns a context that delivers every Pool's events
// beneath it to fn — the hook the server's SSE streams hang on: a
// sweep or experiment handler wraps its request context once and the pools
// inside internal/kernels and internal/experiments report through it
// without any of those layers knowing about streaming. Calls are
// serialized per pool (not across pools); fn must not block for long, or
// it stalls the workers it observes. A nil fn returns ctx unchanged.
func WithProgress(ctx context.Context, fn func(Event)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFrom returns the context's progress observer, or nil.
func ProgressFrom(ctx context.Context) func(Event) {
	fn, _ := ctx.Value(progressKey{}).(func(Event))
	return fn
}

// spanObserverKey carries a per-job span observer through a context tree.
type spanObserverKey struct{}

// SpanObserver receives the elapsed wall time of one completed pool job.
// Unlike the progress observer it is NOT serialized across jobs —
// implementations must be concurrency-safe and cheap (the server's feeds
// atomic histograms).
type SpanObserver func(elapsed time.Duration)

// WithSpanObserver returns a context that reports every pool job
// beneath it to fn — the hook the server's stage profile hangs on:
// kernel sweep points and experiment runs report their individual costs
// without internal/kernels or internal/experiments knowing about
// observability. Coexists with (and is independent of) WithProgress.
// A nil fn returns ctx unchanged.
func WithSpanObserver(ctx context.Context, fn SpanObserver) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, spanObserverKey{}, fn)
}

// SpanObserverFrom returns the context's span observer, or nil.
func SpanObserverFrom(ctx context.Context) SpanObserver {
	fn, _ := ctx.Value(spanObserverKey{}).(SpanObserver)
	return fn
}

// parallelismKey carries a worker-count hint through a context tree.
type parallelismKey struct{}

// WithParallelism returns a context that tells every zero-Parallelism Pool
// beneath it — including the sweep pools inside internal/kernels — to use n
// workers. n = 1 makes the whole tree run serially; n ≤ 0 is ignored.
func WithParallelism(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, parallelismKey{}, n)
}

// ParallelismFrom returns the context's parallelism hint, or GOMAXPROCS
// when none is set.
func ParallelismFrom(ctx context.Context) int {
	if n, ok := ctx.Value(parallelismKey{}).(int); ok && n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
