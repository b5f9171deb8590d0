package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"balarch/internal/loadgen"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the workloads, metric names
// and units this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchFile(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range b.Workloads {
		name(w.Name)
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, the program runs %v", got, workloadNames())
	}
	want := map[string]string{}
	for _, d := range endToEnd {
		want[d.name] = d.unit
	}
	for _, m := range b.EndToEnd {
		name(m.Name)
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s unit %q, the program reports %q", m.Name, m.Unit, want[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		delete(want, m.Name)
	}
	for _, d := range perLayer() {
		want[d.name] = d.unit
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if want[m.Name] != m.Unit {
			t.Errorf("per_layer %s unit %q, the program reports %q", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
	}
	for n := range want {
		t.Errorf("the program reports %s, which BENCHMARK.json does not list", n)
	}
}

// TestPlansDeterministic: the same seed gives byte-identical inputs,
// another seed different ones, and no job body repeats.
func TestPlansDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.kind == suite {
			continue
		}
		a, err := w.plan(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.plan(7)
		c, _ := w.plan(8)
		if !bytes.Equal(loadgen.EncodePlan(a), loadgen.EncodePlan(b)) {
			t.Errorf("%s: seed 7 gave two different plans", w.name)
		}
		if bytes.Equal(loadgen.EncodePlan(a), loadgen.EncodePlan(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.name)
		}
	}
	seen := map[string]bool{}
	for _, q := range jobPlan(7, planSize) {
		if seen[string(q.Body)] {
			t.Fatalf("job body %s repeats", q.Body)
		}
		seen[string(q.Body)] = true
	}
}

// TestSmoke runs both passes of every workload with 1 s windows: every
// metric BENCHMARK.json names is printed with its unit, nothing fails,
// and no child process outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemons and runs the suite for about 30 s")
	}
	b := readBenchFile(t)
	var stdout, stderr bytes.Buffer
	begin := time.Now()
	code := run(context.Background(), []string{"-seconds", "1", "-out", t.TempDir()}, &stdout, &stderr)
	took := time.Since(begin)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, &stderr, &stdout)
	}
	if took > 30*time.Second {
		t.Errorf("smoke run took %v, want ≤ 30s", took)
	}
	if kids := children(t); len(kids) > 0 {
		t.Errorf("child processes %v outlived the run", kids)
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	printed := map[string]map[string][2]string{} // workload → metric → value, unit
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 {
			t.Errorf("line %q: want workload metric value unit", l)
			continue
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string][2]string{}
		}
		printed[f[0]][f[1]] = [2]string{f[2], f[3]}
	}
	for _, w := range b.Workloads {
		got := printed[w.Name]
		for _, m := range b.EndToEnd {
			v, err := strconv.ParseFloat(got[m.Name][0], 64)
			if got[m.Name][1] != m.Unit || err != nil || v <= 0 {
				t.Errorf("%s %s printed as %q, want a positive value in %s", w.Name, m.Name, got[m.Name], m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			if got[m.Name][1] != m.Unit {
				t.Errorf("%s %s printed as %q, want unit %s", w.Name, m.Name, got[m.Name], m.Unit)
			}
		}
		if got["error_rate"][0] != "0" {
			t.Errorf("%s error_rate %q, want 0", w.Name, got["error_rate"][0])
		}
	}
	var summary struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !summary.Correct || summary.Failed != 0 || summary.Attempted == 0 {
		t.Errorf("summary correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
	}
}

// children lists the live processes whose parent is this test.
func children(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited while we looked
		}
		// The fields after the parenthesized command name: state, ppid, …
		rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
		if f := strings.Fields(rest); len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			pids = append(pids, pid)
		}
	}
	return pids
}
