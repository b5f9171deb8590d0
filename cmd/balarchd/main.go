// Command balarchd is the balance-as-a-service daemon: it serves the
// balarch HTTP JSON API (internal/server) — analyze, rebalance, roofline,
// kernel sweeps, the experiment suite, and heterogeneous batches — plus
// /healthz and /metrics, as a long-lived process with graceful shutdown.
//
// Usage:
//
//	balarchd                              # serve on :8080
//	balarchd -addr 127.0.0.1:9090 -parallel 4
//	balarchd -request-timeout 10s -max-batch 16 -max-body 262144
//	balarchd -store-dir /var/lib/balarch  # durable async jobs on /v1/jobs
//
// Flags tune the network surface (addr, read/write timeouts), the compute
// budget (parallel bounds every engine pool; max-inflight bounds concurrent
// requests; request-timeout bounds one request's wall clock), and the
// request caps (max-batch, max-body). -store-dir enables the durable async
// subsystem: submitted jobs are journaled to a WAL under it before the ack,
// results live in a content-addressed store there, and both survive
// restarts — start a new daemon on the same directory and it requeues
// whatever the old one left unfinished. -tenants-file enables API-key
// tenancy: callers presenting "Authorization: Bearer <key>" resolve to the
// configured tenant and get that tenant's token-bucket rate limit, job
// byte budget, and /metrics slice; without the flag every caller is
// anonymous and the traffic surface is unchanged. -pprof-addr (off by default) serves
// net/http/pprof on its own listener — bind it to loopback; the public mux
// never exposes /debug/pprof. -job-workers sizes the queue's
// executor pool (0 pauses execution: accept and journal only), -mem-budget
// caps the summed estimated footprint of live jobs (admission control;
// over-budget submits answer 429 + Retry-After), -job-ttl bounds how long
// finished jobs stay queryable. SIGINT/SIGTERM drain in-flight requests,
// then running jobs (queued ones stay journaled), before exit; a second
// signal kills immediately. Structured logs (one line per request) go to
// stderr; -quiet disables them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"balarch/internal/server"
)

// main starts the daemon and exits 0 on clean shutdown, 1 on serve/bind
// failure, 2 on bad flags.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal starts the drain, restore default signal
	// disposition so a second SIGINT/SIGTERM kills immediately.
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// run is main's testable body. If ready is non-nil it receives the bound
// address once the listener is up (tests use it to learn the ephemeral
// port).
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("balarchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for sweeps, experiments, and batch fan-out")
	maxInFlight := fs.Int("max-inflight", 0,
		"max concurrently handled requests (0 = 2×GOMAXPROCS, -1 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "connection read timeout")
	writeTimeout := fs.Duration("write-timeout", 120*time.Second, "connection write timeout")
	reqTimeout := fs.Duration("request-timeout", 60*time.Second,
		"per-request context budget (0 = no deadline)")
	maxBatch := fs.Int("max-batch", 64, "max requests per /v1/batch call")
	maxBody := fs.Int64("max-body", 1<<20, "max request body bytes")
	nodeID := fs.String("node-id", "",
		"cluster node identity stamped on every response as "+server.NodeHeader+"; empty adds no header (single-node default)")
	storeDir := fs.String("store-dir", "",
		"directory for the durable async subsystem (WAL-journaled /v1/jobs queue + content-addressed result store); empty disables jobs")
	jobWorkers := fs.Int("job-workers", 2,
		"job queue executor count (0 = accept and journal but do not execute)")
	memBudget := fs.Int64("mem-budget", 256<<20,
		"admission budget in bytes for queued+running jobs' estimated footprints (-1 = unlimited)")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute,
		"how long finished jobs stay queryable before garbage collection")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second,
		"drain budget for in-flight requests (and running jobs) on SIGINT/SIGTERM")
	tenantsFile := fs.String("tenants-file", "",
		"JSON tenants config enabling API-key tenancy: per-tenant token-bucket rate limits, job budgets, and /metrics slices; empty disables tenancy (every caller is anonymous and unthrottled)")
	pprofAddr := fs.String("pprof-addr", "",
		"listen address for net/http/pprof and /debug/traces (e.g. 127.0.0.1:6060); empty disables it; always a separate listener, never the public mux")
	traceSample := fs.Int("trace-sample", 128,
		"capture every Nth header-less request's trace (explicit trace=1 and sampled traceparent requests are always captured); 0 disables head sampling")
	logLevel := fs.String("log-level", "info",
		"minimum log level: debug, info, warn, or error (per-request lines log at debug; 5xx responses always log at warn)")
	logFormat := fs.String("log-format", "text",
		"log line format: text or json")
	quiet := fs.Bool("quiet", false, "disable logging entirely (see -log-level to keep warnings)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var level slog.Level
	switch *logLevel {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		fmt.Fprintf(stderr, "balarchd: -log-level: unknown level %q (want debug, info, warn, or error)\n", *logLevel)
		return 2
	}
	var logger *slog.Logger
	if !*quiet {
		hopts := &slog.HandlerOptions{Level: level}
		switch *logFormat {
		case "text":
			logger = slog.New(slog.NewTextHandler(stderr, hopts))
		case "json":
			logger = slog.New(slog.NewJSONHandler(stderr, hopts))
		default:
			fmt.Fprintf(stderr, "balarchd: -log-format: unknown format %q (want text or json)\n", *logFormat)
			return 2
		}
	}
	rt := *reqTimeout
	if rt == 0 {
		rt = -1 // Options treats 0 as "default"; the flag's 0 means "off"
	}
	workers := *jobWorkers
	if workers == 0 {
		workers = -1 // jobs.Options: 0 means default, negative means paused
	}
	var tenants *server.TenantsConfig
	if *tenantsFile != "" {
		var err error
		tenants, err = server.LoadTenantsFile(*tenantsFile)
		if err != nil {
			fmt.Fprintf(stderr, "balarchd: %v\n", err)
			return 1
		}
		if logger != nil {
			logger.Info("tenancy enabled", "tenants_file", *tenantsFile,
				"tenants", len(tenants.Tenants))
		}
	}
	sample := *traceSample
	if sample == 0 {
		sample = -1 // Options: 0 means default; negative disables sampling
	}
	srv := server.New(server.Options{
		Parallelism:      *parallel,
		RequestTimeout:   rt,
		TraceSampleEvery: sample,
		MaxBodyBytes:     *maxBody,
		MaxBatch:         *maxBatch,
		MaxInFlight:      *maxInFlight,
		Logger:           logger,
		StoreDir:         *storeDir,
		JobWorkers:       workers,
		MemBudgetBytes:   *memBudget,
		JobTTL:           *jobTTL,
		Tenants:          tenants,
		NodeID:           *nodeID,
	})
	if *storeDir != "" {
		if err := srv.JobsErr(); err != nil {
			// A daemon asked for durability it cannot provide should not
			// limp along with jobs silently broken.
			fmt.Fprintf(stderr, "balarchd: opening job store: %v\n", err)
			return 1
		}
		if logger != nil {
			c := srv.Jobs().Counters()
			logger.Info("async jobs enabled", "store_dir", *storeDir,
				"workers", *jobWorkers, "mem_budget", *memBudget,
				"replayed", c.Replayed, "queued", c.Queued)
		}
	}

	httpSrv := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "balarchd: %v\n", err)
		return 1
	}

	// The profiling surface is opt-in and isolated: its handlers live on
	// their own mux behind their own listener (typically a loopback
	// address), so the public API can never serve /debug/pprof whatever
	// the flag says.
	var pprofLn net.Listener
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Captured request traces ride the same operator-only listener:
		// trace payloads carry request ids and routes, which belong next
		// to the profiles, not on the tenant-facing mux.
		pmux.Handle("GET /debug/traces", srv.TraceHandler())
		pprofLn, err = net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "balarchd: pprof listener: %v\n", err)
			return 1
		}
		pprofSrv := &http.Server{Handler: pmux, ReadTimeout: *readTimeout}
		go pprofSrv.Serve(pprofLn)
		defer pprofSrv.Close()
		if logger != nil {
			logger.Info("pprof enabled", "addr", pprofLn.Addr().String())
		}
	}

	if logger != nil {
		logger.Info("serving", "addr", ln.Addr().String(), "parallel", *parallel)
	}
	if ready != nil {
		ready <- ln.Addr().String()
		if pprofLn != nil {
			// Best effort: a test that wants the profiling port listens
			// with a deeper buffer; the default harness just drops it.
			select {
			case ready <- pprofLn.Addr().String():
			default:
			}
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "balarchd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: flip /readyz to 503 first so load balancers stop
	// routing new work, then give in-flight requests the grace budget.
	srv.StartDrain()
	if logger != nil {
		logger.Info("shutting down", "grace", *shutdownGrace)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Grace expired with requests still running: cut the connections.
		_ = httpSrv.Close()
		fmt.Fprintf(stderr, "balarchd: shutdown: %v\n", err)
		code = 1
	}
	// Then the job queue, on whatever grace remains: running jobs finish
	// (or are cut at the deadline and requeue on the next start), queued
	// jobs stay journaled in the WAL.
	if err := srv.Close(shCtx); err != nil {
		fmt.Fprintf(stderr, "balarchd: draining jobs: %v\n", err)
		code = 1
	}
	if logger != nil && srv.Jobs() != nil {
		c := srv.Jobs().Counters()
		logger.Info("job queue drained", "done", c.Done, "journaled", c.Queued)
	}
	return code
}
