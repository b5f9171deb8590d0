package client

// Internal tests for WithRetryPolicy: the 503 Retry-After override and
// the MaxBackoff clip, pinned via the sleep seam.

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// recordSleeps swaps the sleep seam for a recorder for one test.
func recordSleeps(t *testing.T) *[]time.Duration {
	t.Helper()
	var slept []time.Duration
	orig := sleep
	sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	t.Cleanup(func() { sleep = orig })
	return &slept
}

func Test503RetryAfterHonored(t *testing.T) {
	slept := recordSleeps(t)
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"draining","message":"soon"}}`))
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1,"experiments":16}`))
	})
	c := NewFromHandler(h, WithRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Millisecond}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The 503's Retry-After (7s) exceeds the schedule (1ms) and wins —
	// the unified throttling contract: hints are honored on 503 and 429
	// alike.
	if len(*slept) != 1 || (*slept)[0] != 7*time.Second {
		t.Fatalf("slept %v, want [7s]", *slept)
	}
}

func TestRetryPolicyMaxBackoffClips(t *testing.T) {
	slept := recordSleeps(t)
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n < 4 {
			if n == 1 {
				// Even an aggressive server hint is clipped.
				w.Header().Set("Retry-After", "60")
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"later"}}`))
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1,"experiments":16}`))
	})
	c := NewFromHandler(h, WithRetryPolicy(RetryPolicy{
		Attempts: 4, Backoff: 10 * time.Millisecond, MaxBackoff: 15 * time.Millisecond,
	}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	// try 1: hint 60s → clip 15ms; try 2: 2×10ms = 20ms → clip 15ms;
	// try 3: 3×10ms = 30ms → clip 15ms.
	want := []time.Duration{15 * time.Millisecond, 15 * time.Millisecond, 15 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, (*slept)[i], d, *slept)
		}
	}
}
