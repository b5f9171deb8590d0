package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderingDeterministic(t *testing.T) {
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context) (int, error) {
			return i * i, nil
		}}
	}
	for _, par := range []int{1, 2, 8, 64} {
		p := Pool[int]{Parallelism: par}
		got, err := p.Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	var p Pool[int]
	got, err := p.Run(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run = %v, %v", got, err)
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	var inFlight, peak atomic.Int32
	jobs := make([]Job[struct{}], 32)
	for i := range jobs {
		jobs[i] = Job[struct{}]{Run: func(context.Context) (struct{}, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		}}
	}
	p := Pool[struct{}]{Parallelism: 3}
	if _, err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 3 {
		t.Errorf("peak concurrency %d exceeds parallelism 3", got)
	}
}

func TestRunFirstErrorCancelsRest(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	jobs := make([]Job[int], 100)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, boom
			}
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
			return i, nil
		}}
	}
	p := Pool[int]{Parallelism: 2}
	_, err := p.Run(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation did not skip any queued jobs")
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job[int]{{Run: func(ctx context.Context) (int, error) {
		return 1, ctx.Err()
	}}}
	var p Pool[int]
	_, err := p.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunProgressEvents: the context's progress observer sees one event
// per job, serialized, with Done counting up to Total, and the span
// observer sees every job once.
func TestRunProgressEvents(t *testing.T) {
	var events []Event
	var spans atomic.Int32
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context) (int, error) { return i, nil }}
	}
	ctx := WithProgress(context.Background(), func(e Event) { events = append(events, e) })
	ctx = WithSpanObserver(ctx, func(time.Duration) { spans.Add(1) })
	p := Pool[int]{Parallelism: 4}
	if _, err := p.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10", len(events))
	}
	for i, e := range events {
		if e != (Event{Done: i + 1, Total: 10}) {
			t.Errorf("event %d = %+v, want %d/10", i, e, i+1)
		}
	}
	if n := spans.Load(); n != 10 {
		t.Errorf("span observer saw %d jobs, want 10", n)
	}
}

func TestCacheDoesNotStoreErrors(t *testing.T) {
	var c Cache[int]
	calls := 0
	fail := func() (int, error) { calls++; return 0, errors.New("transient") }
	if _, err, _ := c.Do("k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err, _ := c.Do("k", fail); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (errors must not be cached)", calls)
	}
	if _, err, hit := c.Do("k", func() (int, error) { return 7, nil }); err != nil || hit {
		t.Fatalf("success run: err=%v hit=%v", err, hit)
	}
	if v, _, hit := c.Do("k", fail); v != 7 || !hit {
		t.Errorf("cached read = %d, hit=%v; want 7, true", v, hit)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("Len after Reset = %d", c.Len())
	}
}

func TestCacheConcurrentSingleFlight(t *testing.T) {
	var c Cache[int]
	var runs atomic.Int32
	const callers = 32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			v, err, _ := c.Do("shared", func() (int, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err == nil && v != 42 {
				err = fmt.Errorf("v = %d", v)
			}
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("work ran %d times, want 1", n)
	}
}

func TestWithParallelism(t *testing.T) {
	ctx := context.Background()
	if got := ParallelismFrom(WithParallelism(ctx, 3)); got != 3 {
		t.Errorf("ParallelismFrom = %d, want 3", got)
	}
	if got := ParallelismFrom(WithParallelism(ctx, 0)); got < 1 {
		t.Errorf("default parallelism %d < 1", got)
	}
	// A zero-Parallelism pool inherits the context hint: with hint 1 the
	// jobs run strictly serially.
	var inFlight, peak atomic.Int32
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func(context.Context) (int, error) {
			n := inFlight.Add(1)
			if p := peak.Load(); n > p {
				peak.CompareAndSwap(p, n)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}}
	}
	var p Pool[int]
	if _, err := p.Run(WithParallelism(ctx, 1), jobs); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Errorf("peak concurrency %d with parallelism hint 1", peak.Load())
	}
}

// TestCacheConcurrentSameKeyMiss stresses the single-flight contract
// directly: many goroutines miss the same key at once, exactly one runs the
// work, everyone shares its value, and exactly one caller is told the value
// came from its own run (hit=false).
func TestCacheConcurrentSameKeyMiss(t *testing.T) {
	const callers = 64
	var c Cache[int]
	var (
		runs     atomic.Int32
		inFlight atomic.Int32
		selfRuns atomic.Int32
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start // line every caller up on the same miss
			v, err, hit := c.Do("key", func() (int, error) {
				if inFlight.Add(1) != 1 {
					t.Error("two flights computing the same key at once")
				}
				runs.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				inFlight.Add(-1)
				return 42, nil
			})
			results[i], errs[i] = v, err
			if !hit {
				selfRuns.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Errorf("work ran %d times under %d concurrent misses, want 1", runs.Load(), callers)
	}
	if n := selfRuns.Load(); n != 1 {
		t.Errorf("%d callers reported hit=false, want exactly 1 (the computing caller)", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheConcurrentSameKeyError: concurrent callers joining a failing
// flight all see the error, the key is forgotten, and the next caller
// recomputes successfully — a transient error never poisons the key.
func TestCacheConcurrentSameKeyError(t *testing.T) {
	const callers = 32
	var c Cache[int]
	var runs atomic.Int32
	transient := errors.New("transient")
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCount := atomic.Int32{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err, _ := c.Do("key", func() (int, error) {
				runs.Add(1)
				time.Sleep(time.Millisecond)
				return 0, transient
			})
			if errors.Is(err, transient) {
				errCount.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	// Every caller that shared the failed flight saw its error; callers
	// that arrived after the failure may have started fresh flights, so
	// runs ≥ 1 but the error reached everyone whose flight failed.
	if errCount.Load() != callers {
		t.Errorf("%d callers saw the error, want %d", errCount.Load(), callers)
	}
	if c.Len() != 0 {
		t.Errorf("failed flights left %d entries, want 0", c.Len())
	}
	// The failure is forgotten: the next Do recomputes and succeeds.
	v, err, hit := c.Do("key", func() (int, error) { return 7, nil })
	if v != 7 || err != nil || hit {
		t.Errorf("post-failure Do = (%d, %v, hit=%v), want (7, nil, false)", v, err, hit)
	}
}
