package client

// Internal test pinning the retry sleep schedule, including the 429
// Retry-After override. It swaps the package's sleep seam for a recorder
// so the schedule is asserted exactly, not timed.

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryScheduleHonorsRetryAfter(t *testing.T) {
	var slept []time.Duration
	orig := sleep
	sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	defer func() { sleep = orig }()

	// Attempt 1: 429 with Retry-After: 7. Attempt 2: 503 (no hint).
	// Attempt 3: 429 with an unparsable hint. Attempt 4: 200.
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"over_budget","message":"wait"}}`))
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"later"}}`))
		case 3:
			w.Header().Set("Retry-After", "soon")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"over_budget","message":"wait"}}`))
		default:
			w.Write([]byte(`{"status":"ok","uptime_seconds":1,"experiments":16}`))
		}
	})
	backoff := 10 * time.Millisecond
	c := NewFromHandler(h, WithRetryPolicy(RetryPolicy{Attempts: 4, Backoff: backoff}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("handler saw %d calls, want 4", calls.Load())
	}
	// The pinned schedule: Retry-After 7s beats 1×backoff; the plain 503
	// falls back to 2×backoff; the bad hint falls back to 3×backoff.
	want := []time.Duration{7 * time.Second, 2 * backoff, 3 * backoff}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestRetryAfterBelowScheduleIgnored: a hint smaller than the schedule
// does not shorten it — backoff still grows.
func TestRetryAfterBelowScheduleIgnored(t *testing.T) {
	var slept []time.Duration
	orig := sleep
	sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	defer func() { sleep = orig }()

	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"over_budget","message":"wait"}}`))
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1,"experiments":16}`))
	})
	c := NewFromHandler(h, WithRetryPolicy(RetryPolicy{Attempts: 3, Backoff: time.Second}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Errorf("slept %v, want [1s] (schedule wins over a zero hint)", slept)
	}
}

// TestNo429RetryWithoutOption: the default client surfaces a 429
// immediately as *APIError, exactly like any other non-2xx.
func TestNo429RetryWithoutOption(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"over_budget","message":"wait"}}`))
	})
	c := NewFromHandler(h)
	raw, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err != nil || raw.Status != http.StatusTooManyRequests {
		t.Fatalf("Do = %v, %v; want the raw 429", raw, err)
	}
	if calls.Load() != 1 {
		t.Errorf("handler saw %d calls, want 1", calls.Load())
	}
}
