package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBinaries builds the processes a run starts into dir. The go command
// runs from the repository root with the caller's environment, so its
// build cache is whatever GOCACHE names (bench.sh keeps it in the
// checkout).
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/balarchd", "./cmd/balarchgw", "./cmd/experiments")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return nil
}

// proc is one child process.
type proc struct {
	name   string
	url    string // base URL, for daemons
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

// start launches bin. The child gets SIGKILL if this process dies first,
// so not even a killed benchmark leaves daemons behind.
func start(stdout io.Writer, bin string, args ...string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = stdout
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", p.name, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState
		close(p.done)
	}()
	return p, nil
}

// Peak memory is the kernel's VmHWM for the process's own address space.
// wait4's ru_maxrss will not do: Go starts children with CLONE_VM, and
// Linux carries the parent's high-water mark into the child at exec.

// wait blocks until the process exits, killing it if ctx ends first, and
// returns its peak resident set in bytes, sampled every 10 ms while it
// runs (the mark is gone once the process exits).
func (p *proc) wait(ctx context.Context) int64 {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var peak int64
	for {
		peak = max(peak, p.peakRSS())
		select {
		case <-p.done:
			return peak
		case <-ctx.Done():
			p.stop()
			return peak
		case <-tick.C:
		}
	}
}

// stop kills the process, waits for it and returns its peak resident set
// in bytes.
func (p *proc) stop() int64 {
	peak := p.peakRSS()
	_ = p.cmd.Process.Kill() // fails only when it already exited
	<-p.done
	return peak
}

// peakRSS reads VmHWM from /proc; 0 once the process has exited.
func (p *proc) peakRSS() int64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			// An unparsable field reads as 0, like an exited process.
			n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n << 10
		}
	}
	return 0
}

// failure describes an exited process by its status and last stderr line.
func (p *proc) failure() string {
	msg := strings.TrimSpace(p.stderr.String())
	if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
		msg = msg[i+1:]
	}
	return fmt.Sprintf("%s %v: %s", p.name, p.cmd.ProcessState, msg)
}

// deployment is the set of daemons one workload runs against.
type deployment struct {
	dir    string // store directories
	procs  []*proc
	target string            // where the load goes: the node, or the gateway
	nodes  map[string]string // balarchd node id → base URL
}

// deploy starts one balarchd, or two behind balarchgw, each on a free
// port with a fresh store directory, and returns once every process is
// ready, with the time that took.
func deploy(ctx context.Context, cfg *config, gateway bool) (*deployment, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.work, "deploy-")
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{dir: dir, nodes: map[string]string{}}
	begin := time.Now()
	err = d.launch(ctx, cfg.bins, gateway)
	took := time.Since(begin)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, took, nil
}

func (d *deployment) launch(ctx context.Context, bins string, gateway bool) error {
	nodes := 1
	if gateway {
		nodes = 2
	}
	for i := 1; i <= nodes; i++ {
		store := filepath.Join(d.dir, fmt.Sprintf("store%d", i))
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		args := []string{"-addr", addr, "-quiet", "-trace-sample", "0", "-store-dir", store}
		id := fmt.Sprintf("n%d", i)
		if gateway {
			args = append(args, "-node-id", id)
		}
		p, err := start(nil, filepath.Join(bins, "balarchd"), args...)
		if err != nil {
			return err
		}
		p.url = "http://" + addr
		d.procs = append(d.procs, p)
		d.nodes[id] = p.url
	}
	for _, p := range d.procs {
		if err := waitReady(ctx, p, 0); err != nil {
			return err
		}
	}
	d.target = d.procs[0].url
	if !gateway {
		return nil
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	gw, err := start(nil, filepath.Join(bins, "balarchgw"), "-addr", addr, "-quiet", "-nodes", strings.Join(d.nodeURLs(), ","))
	if err != nil {
		return err
	}
	gw.url = "http://" + addr
	d.procs = append(d.procs, gw)
	d.target = gw.url
	return waitReady(ctx, gw, nodes)
}

// nodeURLs lists the balarchd base URLs (not the gateway's), by node id.
func (d *deployment) nodeURLs() []string {
	var urls []string
	for _, id := range slices.Sorted(maps.Keys(d.nodes)) {
		urls = append(urls, d.nodes[id])
	}
	return urls
}

// stop kills every process, removes the store directories, and returns
// the processes' summed peak resident set in bytes.
func (d *deployment) stop() int64 {
	var rss int64
	for _, p := range d.procs {
		rss += p.stop()
	}
	_ = os.RemoveAll(d.dir) // scratch; the run directory is removed at exit too
	return rss
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// probeClient polls readiness without keeping connections to daemons that
// are about to be killed.
var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls p until GET /readyz answers 200 and, when healthy > 0,
// GET /healthz reports that many healthy nodes. A daemon is ready a few
// milliseconds after it starts, so the poll period is far below that.
func waitReady(ctx context.Context, p *proc, healthy int) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ready(p.url, healthy) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready: %s", p.name, p.failure())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", p.name)
		}
	}
	return nil
}

func ready(url string, healthy int) bool {
	get := func(path string) ([]byte, bool) {
		resp, err := probeClient.Get(url + path)
		if err != nil {
			return nil, false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, err == nil && resp.StatusCode == http.StatusOK
	}
	if _, ok := get("/readyz"); !ok || healthy == 0 {
		return ok
	}
	body, ok := get("/healthz")
	var h struct {
		Healthy int `json:"healthy"`
	}
	return ok && json.Unmarshal(body, &h) == nil && h.Healthy >= healthy
}
