package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"balarch/client"
	"balarch/internal/obs"
)

// Config shapes one load run.
type Config struct {
	// Scenario is the workload mix (from Get or Scenarios).
	Scenario Scenario
	// Seed drives the deterministic request sequence.
	Seed int64
	// Duration bounds the run's wall clock. The run stops issuing at the
	// deadline and waits for in-flight requests, so no request is ever
	// cancelled (and mis-counted as an error) by the run's own end.
	Duration time.Duration
	// Rate selects the loop discipline: > 0 runs open-loop at that many
	// arrivals/second (arrivals that find the queue full are dropped and
	// counted — the overload signal); 0 runs closed-loop, each worker
	// issuing back-to-back.
	Rate float64
	// Workers is the concurrency: goroutines issuing requests (and the
	// open-loop queue is sized from it). ≤ 0 means 8.
	Workers int
	// MaxRequests optionally caps the number of issued requests; 0 means
	// no cap (the Duration bounds the run).
	MaxRequests int64
}

// sequence hands out the deterministic request stream to the workers. The
// stream itself depends only on (scenario, seed) — worker scheduling decides
// who issues which request, never what the requests are.
type sequence struct {
	mu  sync.Mutex
	r   *rand.Rand
	s   Scenario
	n   int64
	max int64
}

func (q *sequence) next() (Request, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.max > 0 && q.n >= q.max {
		return Request{}, false
	}
	q.n++
	return q.s.next(q.r), true
}

// maxUnexpectedSamples bounds the per-route evidence kept for the report.
const maxUnexpectedSamples = 5

// routeAcc accumulates one route's results during the run.
type routeAcc struct {
	h                 obs.Hist
	statuses          map[string]int64
	transportErrors   int64
	unexpected        int64
	unexpectedSamples []string
}

// collector is the run's shared accounting. A single mutex is plenty: the
// critical section is a few map operations, orders of magnitude cheaper
// than the HTTP exchange it accounts for.
type collector struct {
	mu         sync.Mutex
	routes     map[string]*routeAcc
	requests   int64
	unexpected int64
	dropped    int64
	// traceSent/traceEchoed count requests that carried a traceparent
	// (client.WithTracing) and those whose response joined the trace —
	// the trace-coverage gate's numerator and denominator.
	traceSent   int64
	traceEchoed int64
}

func newCollector() *collector {
	return &collector{routes: make(map[string]*routeAcc)}
}

func (c *collector) route(name string) *routeAcc {
	ra := c.routes[name]
	if ra == nil {
		ra = &routeAcc{statuses: make(map[string]int64)}
		c.routes[name] = ra
	}
	return ra
}

// record accounts one finished request.
func (c *collector) record(q Request, resp *client.Response, err error, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	ra := c.route(q.Route)
	ra.h.Observe(elapsed)
	if resp != nil && resp.Traceparent != "" {
		c.traceSent++
		if resp.TraceEchoed() {
			c.traceEchoed++
		}
	}
	if err != nil {
		ra.transportErrors++
		ra.unexpected++
		c.unexpected++
		if len(ra.unexpectedSamples) < maxUnexpectedSamples {
			ra.unexpectedSamples = append(ra.unexpectedSamples, fmt.Sprintf("transport: %v", err))
		}
		return
	}
	ra.statuses[statusClass(resp.Status)]++
	if !q.Expected(resp.Status) {
		ra.unexpected++
		c.unexpected++
		if len(ra.unexpectedSamples) < maxUnexpectedSamples {
			ae := client.DecodeAPIError(resp)
			ra.unexpectedSamples = append(ra.unexpectedSamples,
				fmt.Sprintf("status %d (%s): %s [request id %s]", resp.Status, ae.Code, ae.Message, ae.RequestID))
		}
	}
}

func statusClass(status int) string {
	switch status / 100 {
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	default:
		return "other"
	}
}

// Run drives the configured scenario through c and returns the accounting.
// It returns an error only when the run itself could not execute (bad
// config, context cancelled); request failures are data, recorded in the
// Summary, not errors.
func Run(ctx context.Context, c *client.Client, cfg Config) (*Summary, error) {
	if cfg.Scenario.Name == "" {
		return nil, errors.New("loadgen: Config.Scenario is required")
	}
	if cfg.Duration <= 0 && cfg.MaxRequests <= 0 {
		return nil, errors.New("loadgen: need Duration > 0 or MaxRequests > 0")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	seq := &sequence{r: rand.New(rand.NewSource(cfg.Seed)), s: cfg.Scenario, max: cfg.MaxRequests}
	col := newCollector()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	expired := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && !time.Now().Before(deadline)
	}
	// The timer wraps the whole Do call, so a retrying client's latencies
	// include every attempt and backoff sleep — the client experience.
	// Cross-checking against the server's per-attempt histograms is only
	// valid with a non-retrying client (cmd/balarchload enforces this).
	issue := func(q Request) {
		t0 := time.Now()
		var resp *client.Response
		var err error
		if q.APIKey != "" {
			resp, err = c.DoAs(ctx, q.APIKey, q.Method, q.Path, q.Body)
		} else {
			resp, err = c.Do(ctx, q.Method, q.Path, q.Body)
		}
		col.record(q, resp, err, time.Since(t0))
	}

	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
		runOpenLoop(ctx, cfg.Rate, workers, seq, col, issue, expired)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !expired() {
					q, ok := seq.next()
					if !ok {
						return
					}
					issue(q)
				}
			}()
		}
		wg.Wait()
	}

	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: run cancelled: %w", err)
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	sum := col.summary(cfg, mode, workers, elapsed)
	sum.MemTotalAllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	sum.MemNumGC = int64(memAfter.NumGC) - int64(memBefore.NumGC)
	return sum, nil
}

// runOpenLoop paces arrivals at rate/second into a bounded queue the
// workers drain. An arrival that finds the queue full is dropped and
// counted — in an open-loop experiment the world does not wait for the
// server, so a growing drop count is the overload signal.
func runOpenLoop(ctx context.Context, rate float64, workers int, seq *sequence, col *collector, issue func(Request), expired func() bool) {
	queue := make(chan Request, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				issue(q)
			}
		}()
	}

	// The ticker paces coarse wakeups; each wakeup emits however many
	// arrivals the schedule owes, so the target rate holds even when it
	// exceeds the tick frequency.
	start := time.Now()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var arrivals int64
produce:
	for !expired() {
		select {
		case <-ctx.Done():
			break produce
		case <-tick.C:
		}
		due := int64(time.Since(start).Seconds() * rate)
		for ; arrivals < due; arrivals++ {
			q, ok := seq.next()
			if !ok {
				break produce
			}
			select {
			case queue <- q:
			default:
				col.mu.Lock()
				col.dropped++
				col.mu.Unlock()
			}
		}
	}
	close(queue)
	wg.Wait()
}

// RouteSummary is one route's accounting in the final Summary. Quantiles
// are histogram estimates on the server's bucket grid (see RouteLatency in
// internal/server): comparable to /metrics bucket-for-bucket.
type RouteSummary struct {
	Count             int64            `json:"count"`
	StatusClasses     map[string]int64 `json:"responses_by_status_class"`
	TransportErrors   int64            `json:"transport_errors,omitempty"`
	Unexpected        int64            `json:"unexpected_responses"`
	UnexpectedSamples []string         `json:"unexpected_samples,omitempty"`
	MeanSeconds       float64          `json:"mean_seconds"`
	P50Seconds        float64          `json:"p50_seconds"`
	P95Seconds        float64          `json:"p95_seconds"`
	P99Seconds        float64          `json:"p99_seconds"`
	MaxSeconds        float64          `json:"max_seconds"`
}

// Summary is a finished run: the configuration echo plus per-route and
// aggregate accounting. It marshals to the JSON report artifact.
type Summary struct {
	Scenario        string                   `json:"scenario"`
	Seed            int64                    `json:"seed"`
	Mode            string                   `json:"mode"`
	Workers         int                      `json:"workers"`
	TargetRate      float64                  `json:"target_rate_rps,omitempty"`
	ElapsedSeconds  float64                  `json:"elapsed_seconds"`
	Requests        int64                    `json:"requests"`
	DroppedArrivals int64                    `json:"dropped_arrivals,omitempty"`
	ThroughputRPS   float64                  `json:"throughput_rps"`
	Unexpected      int64                    `json:"unexpected_responses"`
	Routes          map[string]*RouteSummary `json:"routes"`
	// runtime.MemStats deltas across the run, for the whole process
	// running the load generator: with -inprocess they include the
	// server's allocations too; over TCP (ci/soak.sh) they cover the
	// client-side request path. Either way an allocation regression shows
	// up as NumGC growth at equal request volume, which is what the soak
	// GC gate (AddGCGate) checks.
	MemTotalAllocBytes uint64 `json:"mem_total_alloc_bytes"`
	MemNumGC           int64  `json:"mem_num_gc"`
	// TraceRequests counts requests that carried a traceparent header
	// (client.WithTracing); TraceEchoed counts those whose response named
	// the same trace id back — end-to-end evidence the server's tracing
	// layer saw the request. Both zero on an untraced run.
	TraceRequests int64 `json:"trace_requests,omitempty"`
	TraceEchoed   int64 `json:"trace_echoed,omitempty"`
}

// TraceCoverage returns the echoed fraction of traced requests, 0 when
// none were traced.
func (s *Summary) TraceCoverage() float64 {
	if s.TraceRequests == 0 {
		return 0
	}
	return float64(s.TraceEchoed) / float64(s.TraceRequests)
}

// summary freezes the collector into the exported shape.
func (c *collector) summary(cfg Config, mode string, workers int, elapsed time.Duration) *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Summary{
		Scenario:        cfg.Scenario.Name,
		Seed:            cfg.Seed,
		Mode:            mode,
		Workers:         workers,
		TargetRate:      cfg.Rate,
		ElapsedSeconds:  elapsed.Seconds(),
		Requests:        c.requests,
		DroppedArrivals: c.dropped,
		Unexpected:      c.unexpected,
		Routes:          make(map[string]*RouteSummary, len(c.routes)),
		TraceRequests:   c.traceSent,
		TraceEchoed:     c.traceEchoed,
	}
	if elapsed > 0 {
		s.ThroughputRPS = float64(c.requests) / elapsed.Seconds()
	}
	for route, ra := range c.routes {
		h := ra.h.Snapshot()
		s.Routes[route] = &RouteSummary{
			Count:             h.Count,
			StatusClasses:     ra.statuses,
			TransportErrors:   ra.transportErrors,
			Unexpected:        ra.unexpected,
			UnexpectedSamples: ra.unexpectedSamples,
			MeanSeconds:       h.Mean(),
			P50Seconds:        h.Quantile(0.50),
			P95Seconds:        h.Quantile(0.95),
			P99Seconds:        h.Quantile(0.99),
			MaxSeconds:        h.Max.Seconds(),
		}
	}
	return s
}

// MaxP99 returns the largest per-route p99 in the summary, for ceiling
// gates.
func (s *Summary) MaxP99() float64 {
	return s.MaxP99Prefix("")
}

// MaxP99Prefix returns the largest p99 among routes whose name starts
// with prefix — how the noisy-neighbor gate scopes its ceiling to the
// victim tenant's routes (VictimRoutePrefix) while the abusive tenant's
// flood is exempt. An empty prefix covers every route.
func (s *Summary) MaxP99Prefix(prefix string) float64 {
	var worst float64
	for route, rs := range s.Routes {
		if !strings.HasPrefix(route, prefix) {
			continue
		}
		if rs.P99Seconds > worst {
			worst = rs.P99Seconds
		}
	}
	return worst
}
