package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestPickWorkload(t *testing.T) {
	for _, name := range []string{"matmul", "grid2", "grid3", "fft"} {
		w, err := pickWorkload(name, 256)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.Name() == "" {
			t.Errorf("%s: empty workload name", name)
		}
	}
	if _, err := pickWorkload("raytrace", 64); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRunReportsNonFiniteRatesAndMovesOn: a subnormal link bandwidth passes
// rate validation but overflows the transfer times; each array size reports
// the failing step on stderr and the sweep goes on to the next size.
func TestRunReportsNonFiniteRatesAndMovesOn(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-cellio", "1e-320", "-pmax", "2", "-n", "64", "-maxmem", "64"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, p := range []string{"p=1: ", "p=2: "} {
		if !strings.Contains(stderr.String(), p+"machine: step 0: input duration +Inf is not finite") {
			t.Errorf("stderr lacks the %s step error:\n%s", p, stderr.String())
		}
	}
	if !strings.Contains(stdout.String(), "per-PE balance memory") {
		t.Errorf("no table on stdout:\n%s", stdout.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-workload", "raytrace"}, {"-topology", "torus"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestRunHugeLimitsTerminate: a memory ceiling or array size of
// math.MaxInt ends the doubling sweeps at the last power of two below it
// instead of overflowing and looping forever.
func TestRunHugeLimitsTerminate(t *testing.T) {
	maxInt := strconv.Itoa(int(^uint(0) >> 1))
	var stdout, stderr strings.Builder
	if code := run([]string{"-maxmem", maxInt, "-pmax", "1", "-n", "64"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-maxmem MaxInt: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "per-PE balance memory") || stderr.Len() != 0 {
		t.Errorf("-maxmem MaxInt: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-pmax", maxInt, "-n", "16", "-maxmem", "64"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-pmax MaxInt: exit %d, stderr %q", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "\n") + strings.Count(stderr.String(), "\n"); got < 63 {
		t.Errorf("-pmax MaxInt: %d output lines, want one per power of two", got)
	}
	if want := []int{1, 2, 4}; !slices.Equal(doublings(1, 7), want) {
		t.Errorf("doublings(1, 7) = %v, want %v", doublings(1, 7), want)
	}
}
