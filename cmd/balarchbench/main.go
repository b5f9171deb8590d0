// Command balarchbench is the service's benchmark: one command that
// measures balarchd end to end, over a real loopback socket, and then
// splits that time into layers.
//
// Usage, from the repository root:
//
//	bash cmd/balarchbench/bench.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1|both] [-out DIR]
//
// bench.sh builds this program and keeps every artifact (Go build cache,
// binaries, store directories, results) under .bench_build/. From this
// directory, `go run . -workload analyze-flat` does the same run with the
// caller's Go environment; `go test` runs a 1 s smoke of every workload.
//
// A run builds cmd/balarchd, cmd/balarchgw and cmd/experiments, starts the
// workload's processes on free loopback ports with fresh store directories
// (balarchd with -quiet -trace-sample 0), and drives them from this one
// process: GOMAXPROCS and the worker count are min(2, nproc), and each
// worker is a closed loop on one keep-alive connection. Inputs are built
// from -seed before timing and cycled; the daemons see only the requests.
//
// # Workloads
//
// Each one exercises a layer the others bypass, so a change to that layer
// predicts a move on one workload and none on the rest.
//
//   - analyze-flat: the loadgen analyze-heavy plan against one balarchd.
//     The model core is about 1% of a ~70 µs request (model.share_pct),
//     so this is the handler, net/http and the socket. Jobs, gateway and
//     kernels are bypassed.
//   - hierarchy-mix: the loadgen hierarchy-mix plan against one balarchd:
//     the same server layer with multi-level analyze, rebalance and
//     roofline, larger bodies and memoized level sweeps.
//   - jobs-durable: seeded, content-unique sort-sweep jobs against one
//     balarchd. One operation is a lifecycle: submit (202), wait on the
//     SSE stream, fetch the result. The worker then polls the job,
//     refetches the stored result and lists GET /v1/jobs?limit=50. WAL
//     fsync, the scheduler and the store do the work.
//   - cluster-gateway: the loadgen cluster-mix plan through balarchgw to
//     two balarchd nodes: the gateway hop, ring routing and scatter-gather
//     on every request.
//   - experiment-suite: `experiments -parallel 2` run back to back: the
//     paper reproduction, where kernels, the engine pool, memsim, pebble
//     and the array simulators do the work and HTTP is bypassed.
//
// # Passes and metrics
//
// -trace 0 is the untraced pass. It sets the workload up nine times
// (setup_s is the median, from spawning the processes to every /readyz
// 200 and, for the gateway, two healthy nodes), keeps the last set-up,
// warms up for one sub-window (a fifth of -seconds) and measures for
// -seconds. Its end-to-end metrics are the ones BENCHMARK.json gates:
//
//	throughput_ops  operations per second, median of five sub-windows
//	latency_p50_us  per-operation latency, exact samples (nearest rank)
//	latency_p99_us
//	setup_s         median set-up time
//	rss_mb          peak RSS (VmHWM) of the workload's child processes:
//	                summed over the daemons, the largest suite run
//
// An operation is one request, one job lifecycle on jobs-durable, and
// one suite on experiment-suite (about five in a 20 s window, so its p99
// is the slowest suite). Each workload also prints its sample count, its error
// rate, and what applies to it alone: job_ack_* and job_turnaround_* on
// jobs-durable, suite_s on experiment-suite.
//
// -trace 1 is the traced pass. After the warm-up it measures an untraced
// reference window (a quarter of -seconds), scrapes every node's
// /metrics?format=prometheus, and runs a traced window (half of
// -seconds) where every request carries client.WithTracing() and
// ?trace=1. Each operation keeps its spans in memory: client.request
// per HTTP call with server.total and the server stages under it, built
// from Server-Timing, plus client.lifecycle and client.wait on
// jobs-durable. They are written to spans-<workload>.json in -out and
// summarized as self.<span>_us, each span's time minus the part its
// children cover. The per-layer metrics, named layer.metric, are timed
// from outside: spans, /metrics deltas across the traced window, the
// same plan through an in-process handler (client.*), the plan's bodies
// through the balarch model API (model.*), direct-to-node replays and
// cluster.Ring lookups (cluster.*), and each experiment run alone
// (experiments.*). A layer the workload does not exercise reads 0. The
// two windows' p50s print as untraced_p50_us and traced_p50_us, the
// inputs of obs.trace_overhead_pct.
//
// Reading order: error_rate first (any failure exits 1), then the
// end-to-end metrics, then the per-layer metrics that name the layer an
// end-to-end move came from: client.transport_us and server.* for
// analyze-flat and hierarchy-mix, model.share_pct as the most a faster
// model core can save, jobs.* and store.* for jobs-durable,
// cluster.hop_us for cluster-gateway, experiments.* for
// experiment-suite, and obs.trace_overhead_pct to see what tracing cost.
//
// Every response is checked against its plan's expected statuses; every
// 64th analyze, rebalance, roofline and emulation answer must be
// byte-identical to an in-process balarch.NewServer's, and every 64th job
// result to the synchronous /v1/sweep answer without its cached field.
// The last line of standard output is one JSON object with correct,
// attempted, failed and the pass's metrics; results.json in -out adds the
// run record and every printed figure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"balarch"
)

// setupRuns is how many times the untraced pass sets a workload up;
// setup_s is the median. A set-up takes milliseconds, so nine cost
// nothing and keep scheduling jitter out of the median.
const setupRuns = 9

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced pass's metrics, the set BENCHMARK.json gates.
var endToEnd = []metricDef{
	{"throughput_ops", "op/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer returns the traced pass's metrics, in report order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"client.rtt_us", "us"},
		{"client.inproc_us", "us"},
		{"client.transport_us", "us"},
		{"server.total_us", "us"},
		{"server.outside_us", "us"},
		{"server.decode_us", "us"},
		{"server.cache_lookup_us", "us"},
		{"server.compute_us", "us"},
		{"server.encode_us", "us"},
		{"server.requests", "count"},
		{"model.analyze_ns", "ns"},
		{"model.rebalance_ns", "ns"},
		{"model.roofline_ns", "ns"},
		{"model.share_pct", "%"},
		{"engine.sweep_hit_ratio", "ratio"},
		{"engine.sweep_misses", "count"},
		{"jobs.admit_us", "us"},
		{"jobs.wal_append_us", "us"},
		{"jobs.queued_us", "us"},
		{"jobs.sched_pick_us", "us"},
		{"jobs.run_us", "us"},
		{"jobs.publish_us", "us"},
		{"jobs.stages_per_job_us", "us"},
		{"jobs.wal_appends_per_job", "count"},
		{"jobs.done", "count"},
		{"jobs.failed", "count"},
		{"store.put_us", "us"},
		{"store.hit_ratio", "ratio"},
		{"store.bytes_per_job", "B"},
		{"cluster.hop_us", "us"},
		{"cluster.outside_node_us", "us"},
		{"cluster.ring_owner_ns", "ns"},
		{"cluster.node_skew", "ratio"},
	}
	for _, id := range balarch.ExperimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"experiments.parallel_efficiency", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"})
}

// value is one reported figure.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's pass: the metrics BENCHMARK.json names, the
// extra figures printed beside them, and the operation tally.
type result struct {
	Workload  string           `json:"workload"`
	Pass      string           `json:"pass"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra"`

	defs   []metricDef
	values map[string]float64
	traces []traceRec
}

func newResult(workload string, traced bool) *result {
	r := &result{Workload: workload, Pass: "untraced", defs: endToEnd,
		Metrics: map[string]value{}, Extra: map[string]value{}, values: map[string]float64{}}
	if traced {
		r.Pass, r.defs = "traced", perLayer()
	}
	return r
}

// fail counts one failed step and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// tally folds a closed loop's counts into the result.
func (r *result) tally(w *worker) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	for _, e := range w.errs {
		if len(r.Errors) < 8 {
			r.Errors = append(r.Errors, e)
		}
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) extra(name string, v float64, unit string) {
	r.Extra[name] = value{finite(v), unit}
}

// finish fills Metrics from the measured values. A per-layer metric the
// workload never measured is a layer it does not exercise and reads 0;
// an end-to-end metric must have been measured.
func (r *result) finish() {
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok && r.Pass == "untraced" && r.Failed == 0 {
			r.fail("%s was not measured", d.name)
		}
		r.Metrics[d.name] = value{finite(v), d.unit}
	}
	if r.Attempted > 0 {
		r.extra("error_rate", float64(r.Failed)/float64(r.Attempted), "failed/attempted")
	}
}

// print writes the result as "workload metric value unit" lines to w,
// the gated metrics in table order and then the extras by name, and its
// errors to errw.
func (r *result) print(w, errw io.Writer) {
	line := func(name string, v value) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, d := range r.defs {
		line(d.name, r.Metrics[d.name])
	}
	names := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line(n, r.Extra[n])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(errw, "balarchbench: %s %s: %s\n", r.Workload, r.Pass, e)
	}
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// config is one invocation's settings and directories.
type config struct {
	seed    int64
	window  time.Duration // the untraced pass's measured window
	workers int
	bins    string // built daemons and experiments CLI
	work    string // store directories; removed at exit
}

// sub is one throughput sub-window, which is also the warm-up length.
func (c *config) sub() time.Duration { return c.window / subWindows }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body. It exits 0 when every check passed, 1 when
// any operation or check failed, and 2 when the benchmark could not run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("balarchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", strings.Join(workloadNames(), ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "measured window of the untraced pass, in seconds")
	trace := fs.String("trace", "both", "0 runs the untraced pass (end-to-end metrics), 1 the traced pass (per-layer metrics), both runs 0 then 1")
	out := fs.String("out", "", "directory for results.json and span files (default .bench_build/out in the repository)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "balarchbench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		w, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			fmt.Fprintf(stderr, "balarchbench: unknown workload %q (one of %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = append(selected, w)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "balarchbench: -seconds must be positive")
		return 2
	}

	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "balarchbench: %v\n", err)
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	cfg := &config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		workers: workers, bins: filepath.Join(build, "bin")}
	for _, dir := range []string{build, *out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "balarchbench: %v\n", err)
			return 2
		}
	}
	if cfg.work, err = os.MkdirTemp(build, "run-"); err != nil {
		fmt.Fprintf(stderr, "balarchbench: %v\n", err)
		return 2
	}
	defer func() {
		_ = os.RemoveAll(cfg.work) // scratch; a leftover is ignored by .gitignore
		// Commit the deletes (thousands of job files after jobs-durable)
		// now, so their journal writeback cannot stall the next run's
		// fsyncs.
		syscall.Sync()
	}()
	if err := buildBinaries(ctx, root, cfg.bins); err != nil {
		fmt.Fprintf(stderr, "balarchbench: %v\n", err)
		return 2
	}

	var results []*result
	for _, w := range selected {
		for _, traced := range passes {
			r := w.measure(ctx, cfg, traced)
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "balarchbench: interrupted")
				return 2
			}
			if traced {
				if err := writeJSON(filepath.Join(*out, "spans-"+w.name+".json"), r.traces); err != nil {
					r.fail("writing spans: %v", err)
				}
				r.traces = nil
			}
			r.finish()
			r.print(stdout, stderr)
			results = append(results, r)
		}
	}

	rec := runRecord{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Seed: *seed, Commit: commit(), WindowSeconds: cfg.window.Seconds(),
		WarmupSeconds: cfg.sub().Seconds(), SubWindows: subWindows, SetupRuns: setupRuns, Results: results}
	if err := writeJSON(filepath.Join(*out, "results.json"), rec); err != nil {
		fmt.Fprintf(stderr, "balarchbench: %v\n", err)
		return 2
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range results {
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for n, v := range r.Metrics {
			if len(results) > 1 {
				n = r.Workload + ":" + n
			}
			summary.Metrics[n] = v
		}
	}
	summary.Correct = summary.Failed == 0 && summary.Attempted > 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "balarchbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}

// runRecord is results.json: what ran, on what, and every figure.
type runRecord struct {
	GoVersion     string    `json:"go_version"`
	NumCPU        int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Workers       int       `json:"workers"`
	Seed          int64     `json:"seed"`
	Commit        string    `json:"commit"`
	WindowSeconds float64   `json:"window_seconds"`
	WarmupSeconds float64   `json:"warmup_seconds"`
	SubWindows    int       `json:"sub_windows"`
	SetupRuns     int       `json:"setup_runs"`
	Results       []*result `json:"results"`
}

// commit is the VCS revision this binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// repoRoot walks up from the working directory to the balarch checkout.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "balarchd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the balarch repository (no cmd/balarchd above the working directory)")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
