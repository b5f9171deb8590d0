// Command balarchload is the scenario load generator for
// balance-as-a-service: it drives a named workload mix (internal/loadgen)
// at a balarchd server — or at the API stack in process — and reports
// per-route latency quantiles, throughput, and error classes, with
// optional gates for CI.
//
// Usage:
//
//	balarchload -url http://127.0.0.1:8080 -scenario mixed-production -duration 20s
//	balarchload -inprocess -scenario sweep-stampede -requests 500 -workers 8
//	balarchload -url ... -rate 200 -duration 30s        # open-loop at 200 arrivals/s
//	balarchload -list                                   # scenario catalog
//
// The request sequence is deterministic in (-scenario, -seed): the same
// flags replay the same traffic byte-for-byte. Reports render as text by
// default, -json for the machine-readable report (same internal/report
// shapes as cmd/experiments). Gates: every run requires zero unexpected
// non-2xx responses; -max-p99 adds a per-route latency ceiling;
// -victim-max-p99 gates only the victim-tenant routes of the
// noisy-neighbor scenario (tenancy isolation: the abusive tenant's 429s
// are expected, the victim's latency is the claim); -crosscheck
// (meaningful against a freshly started server) requires the client-side
// quantiles to agree with the server's /metrics histograms within one
// bucket; -jobs-drain (for the async job-queue scenario) requires the job
// queue to drain with zero failed jobs within the given budget after the
// run; -gc-baseline-per1k caps this process's GC count per 1k requests at
// the recorded baseline + 20% (the soak guard against allocation
// regressions in the request path); -min-trace-coverage (with -trace,
// the default) requires the server to echo the trace id on at least
// that fraction of requests — the end-to-end proof that trace
// propagation survives the full middleware chain under load. Exit
// status: 0 all gates pass, 1 a gate failed, 2 the harness itself
// errored.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"balarch"
	"balarch/client"
	"balarch/internal/loadgen"
	"balarch/internal/server"
)

// main wires SIGINT cancellation and exits with run's code.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("balarchload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "target server base URL (e.g. http://127.0.0.1:8080)")
	inprocess := fs.Bool("inprocess", false,
		"drive the API stack in process instead of a remote server")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"in-process server parallelism (only with -inprocess)")
	scenario := fs.String("scenario", "mixed-production", "workload mix (see -list)")
	duration := fs.Duration("duration", 20*time.Second, "run length")
	rate := fs.Float64("rate", 0,
		"open-loop arrivals per second (0 = closed loop: workers issue back-to-back)")
	workers := fs.Int("workers", 8, "concurrent request workers")
	seed := fs.Int64("seed", 1, "request-sequence seed (same seed = same traffic)")
	requests := fs.Int64("requests", 0, "stop after this many requests (0 = run for -duration)")
	retries := fs.Int("retries", 1, "client attempts per request (>1 retries 503s and transport errors)")
	wait := fs.Duration("wait", 5*time.Second,
		"how long the health preflight polls a just-started target before giving up")
	maxP99 := fs.Duration("max-p99", 0,
		"fail (exit 1) if any route's p99 exceeds this (0 = no gate); measures the client experience, so with -retries > 1 it includes retry attempts and backoff")
	victimP99 := fs.Duration("victim-max-p99", 0,
		"fail (exit 1) if any victim-tenant route's p99 exceeds this — the noisy-neighbor isolation gate (0 = no gate)")
	crosscheck := fs.Bool("crosscheck", false,
		"fetch /metrics after the run and require quantile agreement within one bucket (use against a fresh server)")
	gcBaseline := fs.Float64("gc-baseline-per1k", 0,
		"fail (exit 1) if this process's GC count per 1k requests exceeds this baseline by more than 20% (0 = no gate); counts the whole balarchload process, so with -inprocess it includes the server too")
	jobsDrain := fs.Duration("jobs-drain", 0,
		"zero-lost-jobs gate for async scenarios: after the run, poll /metrics up to this long for the job queue to drain (queued+running → 0) with no failures (0 = no gate)")
	fairnessDrain := fs.Duration("fairness-drain", 0,
		"scheduler-fairness gate for the backlog-fairness scenario: poll /metrics up to this long for the queue to drain, then require jobs_sched_max_wait_picks ≤ -fairness-max-wait and the minority tenant served (0 = no gate)")
	fairnessMaxWait := fs.Int64("fairness-max-wait", 8,
		"ceiling on jobs_sched_max_wait_picks for -fairness-drain: the most consecutive picks a tenant with eligible pending work may be bypassed")
	trace := fs.Bool("trace", true,
		"send a W3C traceparent on every request and record whether the server echoes it")
	minTraceCoverage := fs.Float64("min-trace-coverage", 0,
		"fail (exit 1) if fewer than this fraction (0..1] of traced requests had their trace id echoed back (0 = no gate; requires -trace)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	list := fs.Bool("list", false, "list scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, sc := range loadgen.Scenarios() {
			fmt.Fprintf(stdout, "%-18s %s\n", sc.Name, sc.Description)
		}
		return 0
	}

	sc, err := loadgen.Get(*scenario)
	if err != nil {
		return fatal(stderr, err)
	}
	if *crosscheck && *retries > 1 {
		// Loadgen times the whole retrying call (attempts + backoff); the
		// server's histograms see individual attempts. The two are not
		// comparable, so the combination would fail spuriously.
		return fatal(stderr, fmt.Errorf("-crosscheck requires -retries 1: retried latencies include backoff the server never sees"))
	}
	// The tenancy scenarios are only meaningful against a tenanted
	// server; for -inprocess runs install the tenant set each assumes
	// (remote targets get theirs from balarchd -tenants-file).
	var tenants *server.TenantsConfig
	switch {
	case *inprocess && sc.Name == "noisy-neighbor":
		tenants = loadgen.NoisyNeighborTenants()
	case *inprocess && sc.Name == "backlog-fairness":
		tenants = loadgen.FairnessTenants()
	}
	if *minTraceCoverage > 0 && !*trace {
		return fatal(stderr, fmt.Errorf("-min-trace-coverage requires -trace: the gate measures traced requests"))
	}
	c, cleanup, err := buildClient(*url, *inprocess, *parallel, *retries, *trace, tenants)
	if err != nil {
		return fatal(stderr, err)
	}
	defer cleanup()
	// Preflight: an unreachable or unhealthy target is a harness error,
	// not a load-test finding. Poll for -wait so a just-started daemon
	// (ci/soak.sh boots one right before calling us) has time to bind.
	if _, err := c.WaitHealthy(ctx, *wait); err != nil {
		return fatal(stderr, err)
	}

	cfg := loadgen.Config{
		Scenario:    sc,
		Seed:        *seed,
		Duration:    *duration,
		Rate:        *rate,
		Workers:     *workers,
		MaxRequests: *requests,
	}
	if cfg.MaxRequests > 0 {
		cfg.Duration = 0 // a request cap runs to completion, not to a clock
	}
	sum, err := loadgen.Run(ctx, c, cfg)
	if err != nil {
		return fatal(stderr, err)
	}

	res := sum.Report()
	if *maxP99 > 0 {
		sum.AddP99Gate(res, *maxP99)
	}
	if *victimP99 > 0 {
		sum.AddVictimP99Gate(res, *victimP99)
	}
	if *gcBaseline > 0 {
		sum.AddGCGate(res, *gcBaseline)
	}
	if *minTraceCoverage > 0 {
		sum.AddTraceCoverageGate(res, *minTraceCoverage)
	}
	if *jobsDrain > 0 {
		loadgen.AddJobsDrainGate(ctx, res, c, *jobsDrain)
	}
	if *fairnessDrain > 0 {
		loadgen.AddFairnessGate(ctx, res, c, *fairnessDrain, *fairnessMaxWait)
	}
	if *crosscheck {
		m, err := c.Metrics(ctx)
		if err != nil {
			return fatal(stderr, fmt.Errorf("fetching /metrics for cross-check: %w", err))
		}
		loadgen.AddCrossCheckGate(res, sum, m)
	}

	if *asJSON {
		data, err := res.JSON()
		if err != nil {
			return fatal(stderr, err)
		}
		if _, err := stdout.Write(append(data, '\n')); err != nil {
			return fatal(stderr, err)
		}
	} else {
		if err := res.Render(stdout); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintln(stdout)
	}

	verdict := "all gates pass"
	code := 0
	if !res.Pass() {
		verdict = "GATES FAILED"
		code = 1
	}
	fmt.Fprintf(stderr, "balarchload: %s/%s: %d requests in %.2fs (%.1f rps, %d unexpected): %s\n",
		sum.Scenario, sum.Mode, sum.Requests, sum.ElapsedSeconds, sum.ThroughputRPS,
		sum.Unexpected, verdict)
	return code
}

// buildClient resolves the target: a remote URL or the in-process stack.
// The in-process server gets a throwaway store directory so the async
// scenarios (job-queue) work against it too; cleanup removes it.
func buildClient(url string, inprocess bool, parallel, retries int, trace bool, tenants *server.TenantsConfig) (*client.Client, func(), error) {
	noop := func() {}
	var opts []client.Option
	if retries > 1 {
		opts = append(opts, client.WithRetryPolicy(client.RetryPolicy{Attempts: retries, Backoff: 50 * time.Millisecond}))
	}
	if trace {
		opts = append(opts, client.WithTracing())
	}
	switch {
	case inprocess && url != "":
		return nil, noop, fmt.Errorf("-url and -inprocess are mutually exclusive")
	case inprocess:
		dir, err := os.MkdirTemp("", "balarchload-store-*")
		if err != nil {
			return nil, noop, fmt.Errorf("creating in-process store dir: %w", err)
		}
		srv := balarch.NewServer(balarch.ServerOptions{
			Parallelism: parallel,
			StoreDir:    dir,
			Tenants:     tenants,
		})
		if err := srv.JobsErr(); err != nil {
			os.RemoveAll(dir)
			return nil, noop, fmt.Errorf("opening in-process job store: %w", err)
		}
		cleanup := func() {
			// Drain the queue before deleting the directory out from
			// under its workers.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Close(ctx)
			os.RemoveAll(dir)
		}
		return client.NewFromHandler(srv.Handler(), opts...), cleanup, nil
	case url != "":
		c, err := client.New(url, opts...)
		return c, noop, err
	default:
		return nil, noop, fmt.Errorf("need a target: -url or -inprocess")
	}
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "balarchload:", err)
	return 2
}
