package jobs

// Tests for the pick scheduler (sched.go) and the queue behaviors it
// changed: priority lanes, the shared WAL-failure backoff, the
// drain-rate Retry-After, and the fairness/budget invariants the
// balanced policy promises (pinned as testing/quick properties).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"balarch/internal/store"
)

// openSchedQueue opens a queue whose executor records the order requests
// reach it. A non-nil gate makes every execution block on one receive
// after recording, so tests can pace the worker pool by hand.
func openSchedQueue(t *testing.T, opts Options, gate chan struct{}) (*Queue, func() []string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	exec := func(ctx context.Context, kind string, req json.RawMessage) ([]byte, error) {
		mu.Lock()
		order = append(order, string(req))
		mu.Unlock()
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte(`{"ok":true}`), nil
	}
	q, err := Open(filepath.Join(dir, "queue"), st, exec, opts)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Close(ctx)
		st.Close()
	})
	return q, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}
}

// TestPriorityOrdersPicksWithinTenant pins the lane semantics end to
// end: with one worker pinned on a blocker, jobs submitted low, normal,
// high execute high → normal → low, not submission order.
func TestPriorityOrdersPicksWithinTenant(t *testing.T) {
	gate := make(chan struct{})
	q, order := openSchedQueue(t, Options{Workers: 1}, gate)
	blocker, _, err := q.SubmitFor("", "sweep", []byte(`"blocker"`), 10, PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, blocker.ID, Running)
	var ids []string
	for _, s := range []struct {
		req string
		p   Priority
	}{{`"low"`, PriorityLow}, {`"normal"`, PriorityNormal}, {`"high"`, PriorityHigh}} {
		j, _, err := q.SubmitFor("", "sweep", []byte(s.req), 10, s.p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 4; i++ {
		gate <- struct{}{} // release the executions one at a time
	}
	for _, id := range ids {
		waitState(t, q, id, Done)
	}
	got := order()
	want := []string{`"blocker"`, `"high"`, `"normal"`, `"low"`}
	if len(got) != len(want) {
		t.Fatalf("executed %d jobs, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
}

// TestWALStartFailureBacksOffAndPreservesOrder injects one start-append
// failure and pins both fixes at once: the picked job goes back to the
// front (so the later submission cannot overtake it), and the workers
// back off for walRetryMin instead of hot-spinning on the dead disk —
// exactly one retry attempt, no earlier than the backoff window.
func TestWALStartFailureBacksOffAndPreservesOrder(t *testing.T) {
	q, order := openSchedQueue(t, Options{Workers: 1}, nil)
	var hmu sync.Mutex
	var startAt []time.Time
	failed := false
	q.mu.Lock()
	q.walAppendHook = func(op string) error {
		if op != "start" {
			return nil
		}
		hmu.Lock()
		defer hmu.Unlock()
		startAt = append(startAt, time.Now())
		if !failed {
			failed = true
			return errors.New("injected: no space left on device")
		}
		return nil
	}
	q.mu.Unlock()

	a, _, err := q.SubmitFor("", "sweep", []byte(`"first"`), 10, PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := q.SubmitFor("", "sweep", []byte(`"second"`), 10, PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, a.ID, Done)
	waitState(t, q, b.ID, Done)

	if got := order(); len(got) != 2 || got[0] != `"first"` || got[1] != `"second"` {
		t.Errorf("execution order after WAL failure = %v, want [\"first\" \"second\"]", got)
	}
	hmu.Lock()
	defer hmu.Unlock()
	if len(startAt) != 3 {
		// 3 = the failed attempt, its retry, and the second job. More
		// means the worker spun on the failing append.
		t.Fatalf("start append attempted %d times, want 3", len(startAt))
	}
	if gap := startAt[1].Sub(startAt[0]); gap < 80*time.Millisecond {
		t.Errorf("retry came %v after the failure, want ≥ ~%v (shared backoff)", gap, walRetryMin)
	}
}

// TestPausedQueueRetryAfterIsCapped pins the paused-queue hint: a queue
// with no executors drains nothing, so the only honest Retry-After is
// the cap — not the old 1-second advice that told clients to hammer a
// queue that cannot make progress.
func TestPausedQueueRetryAfterIsCapped(t *testing.T) {
	q, _ := openSchedQueue(t, Options{Workers: -1, MemBudgetBytes: 1000}, nil)
	if _, _, err := q.SubmitFor("", "sweep", []byte(`"fill"`), 900, PriorityNormal); err != nil {
		t.Fatal(err)
	}
	_, _, err := q.SubmitFor("", "sweep", []byte(`"spill"`), 900, PriorityNormal)
	var over *ErrOverBudget
	if !errors.As(err, &over) {
		t.Fatalf("over-budget submit returned %v, want ErrOverBudget", err)
	}
	if over.RetryAfter != maxRetryAfter {
		t.Errorf("paused-queue RetryAfter = %v, want the cap %v", over.RetryAfter, maxRetryAfter)
	}
}

// TestRetryAfterTracksDrainRate pins the corrected hint: once the pool
// has a measured drain rate, Retry-After is backlog/drain (clamped), not
// one second per running job.
func TestRetryAfterTracksDrainRate(t *testing.T) {
	gate := make(chan struct{})
	q, _ := openSchedQueue(t, Options{Workers: 2, MemBudgetBytes: 1000}, gate)
	defer close(gate)
	j, _, err := q.SubmitFor("", "sweep", []byte(`"big"`), 800, PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, j.ID, Running)
	q.mu.Lock()
	q.drainPerWorker = 100 // × 2 workers = 200 B/s pool drain
	q.drainSamples = 1
	q.mu.Unlock()

	_, _, err = q.SubmitFor("", "sweep", []byte(`"over"`), 400, PriorityNormal)
	var over *ErrOverBudget
	if !errors.As(err, &over) {
		t.Fatalf("over-budget submit returned %v, want ErrOverBudget", err)
	}
	if want := 6 * time.Second; over.RetryAfter != want { // (800+400)/200
		t.Errorf("RetryAfter = %v, want backlog/drain = %v", over.RetryAfter, want)
	}

	// A trickling pool would advise hours; the hint clamps to the cap.
	q.mu.Lock()
	q.drainPerWorker = 1
	q.mu.Unlock()
	_, _, err = q.SubmitFor("", "sweep", []byte(`"way-over"`), 400, PriorityNormal)
	if !errors.As(err, &over) {
		t.Fatalf("over-budget submit returned %v, want ErrOverBudget", err)
	}
	if over.RetryAfter != maxRetryAfter {
		t.Errorf("slow-drain RetryAfter = %v, want the cap %v", over.RetryAfter, maxRetryAfter)
	}
}

// TestQuickPickNeverExceedsDrainTarget is the balanced policy's memory
// property: over arbitrary submission sequences, whenever a pick lands
// on a non-idle pool the running footprint stays under the drain-rate
// target (min(DrainBPS × horizon, budget)) — and the pool never
// livelocks (an idle pool always picks).
func TestQuickPickNeverExceedsDrainTarget(t *testing.T) {
	prop := func(costs []uint16, tenantSel, prioSel []uint8) bool {
		n := min(len(costs), len(tenantSel), len(prioSel))
		s := newScheduler(nil)
		jobs := make(map[string]*Job)
		prios := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
		for i := 0; i < n; i++ {
			j := &Job{
				ID:       fmt.Sprintf("j%d", i),
				Tenant:   fmt.Sprintf("t%d", tenantSel[i]%3),
				Priority: prios[prioSel[i]%3],
				Cost:     int64(costs[i]),
				State:    Queued,
			}
			jobs[j.ID] = j
			s.push(j)
		}
		const drain, budget = 1000.0, int64(4096)
		target := int64(drain * drainHorizonSeconds)
		if budget < target {
			target = budget
		}
		var runningBytes int64
		var running []string
		queued := n
		for queued > 0 || len(running) > 0 {
			st := PoolState{
				RunningJobs:    int64(len(running)),
				RunningBytes:   runningBytes,
				DrainBPS:       drain,
				MemBudgetBytes: budget,
			}
			if id, _, ok := s.pick(st, jobs); ok {
				j := jobs[id]
				j.State = Running
				running = append(running, id)
				runningBytes += j.Cost
				queued--
				if st.RunningJobs > 0 && runningBytes > target {
					return false // packed past the drain target
				}
				continue
			}
			if len(running) == 0 {
				return false // idle pool refused to pick: livelock
			}
			id := running[0] // retire the oldest running job
			running = running[1:]
			jobs[id].State = Done
			runningBytes -= jobs[id].Cost
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNoTenantStarvation is the fairness property: with equal
// weights, draining any submission sequence never bypasses a tenant
// with eligible pending work more than (tenants − 1) consecutive picks
// — one round of the ring.
func TestQuickNoTenantStarvation(t *testing.T) {
	prop := func(tenantSel, prioSel []uint8) bool {
		n := min(len(tenantSel), len(prioSel))
		if n == 0 {
			return true
		}
		s := newScheduler(nil)
		jobs := make(map[string]*Job)
		prios := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
		for i := 0; i < n; i++ {
			j := &Job{
				ID:       fmt.Sprintf("j%d", i),
				Tenant:   fmt.Sprintf("t%d", tenantSel[i]%5),
				Priority: prios[prioSel[i]%3],
				Cost:     1,
				State:    Queued,
			}
			jobs[j.ID] = j
			s.push(j)
		}
		for {
			id, _, ok := s.pick(PoolState{}, jobs) // idle pool: all fit
			if !ok {
				break
			}
			jobs[id].State = Done
		}
		for _, j := range jobs {
			if j.State != Done {
				return false // something never drained
			}
		}
		return s.maxWait <= int64(len(s.ring)-1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestWeightedRoundRobinBound pins the weighted schedule and its bound
// exactly: weights a:2, b:1, c:1 serve a a b c …, and the worst
// consecutive bypass of an eligible tenant is Σweights − weight(t) = 3.
func TestWeightedRoundRobinBound(t *testing.T) {
	s := newScheduler(map[string]int{"a": 2})
	jobs := make(map[string]*Job)
	push := func(tenant string, i int) {
		j := &Job{ID: fmt.Sprintf("%s%d", tenant, i), Tenant: tenant, Cost: 1, State: Queued}
		jobs[j.ID] = j
		s.push(j)
	}
	for i := 0; i < 3; i++ { // interleave so the ring order is a, b, c
		push("a", 2*i)
		push("a", 2*i+1)
		push("b", i)
		push("c", i)
	}
	var got []string
	for {
		id, _, ok := s.pick(PoolState{}, jobs)
		if !ok {
			break
		}
		jobs[id].State = Done
		got = append(got, jobs[id].Tenant)
	}
	want := "a a b c a a b c a a b c"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("pick sequence = %q, want %q", g, want)
	}
	if s.maxWait != 3 {
		t.Errorf("maxWait = %d, want Σweights − weight(c) = 3", s.maxWait)
	}
}

// TestReplayForgivingPriority pins the WAL compatibility contract: a
// priority-absent record folds to normal (old journals replay
// unchanged), an unknown spelling folds to normal instead of tearing
// the tail, and an explicit class survives.
func TestReplayForgivingPriority(t *testing.T) {
	wal := `{"op":"submit","id":"jaaa","kind":"sweep","req":{},"cost":5,"key":"k1","t":"2026-01-01T00:00:00Z"}
{"op":"submit","id":"jbbb","kind":"sweep","req":{},"cost":5,"key":"k2","prio":"high","t":"2026-01-01T00:00:01Z"}
{"op":"submit","id":"jccc","kind":"sweep","req":{},"cost":5,"key":"k3","prio":"urgent","t":"2026-01-01T00:00:02Z"}
`
	jobs := replayWAL([]byte(wal))
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	for id, want := range map[string]Priority{
		"jaaa": PriorityNormal, "jbbb": PriorityHigh, "jccc": PriorityNormal,
	} {
		if jobs[id].Priority != want {
			t.Errorf("job %s replayed with priority %q, want %q", id, jobs[id].Priority, want)
		}
	}
}

// TestWALPriorityRoundTripAcrossReopen pins both halves of the journal
// contract live: explicit priorities survive Close/Open (including the
// compaction rewrite), and a normal-priority record carries no prio key
// at all — byte-identical to the pre-priority format.
func TestWALPriorityRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	exec := func(context.Context, string, json.RawMessage) ([]byte, error) {
		return []byte(`{}`), nil
	}
	open := func() (*store.Store, *Queue) {
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := Open(filepath.Join(dir, "queue"), st, exec, Options{Workers: -1, MemBudgetBytes: -1})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return st, q
	}
	st, q := open()
	hi, _, err := q.SubmitFor("", "sweep", []byte(`"hi"`), 10, PriorityHigh)
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := q.SubmitFor("", "sweep", []byte(`"lo"`), 10, PriorityLow)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := q.Submit("sweep", []byte(`"plain"`), 10)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "queue", "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		switch {
		case strings.Contains(line, `"hi"`) && !strings.Contains(line, `"prio":"high"`):
			t.Errorf("high-priority record lost its class: %s", line)
		case strings.Contains(line, `"plain"`) && strings.Contains(line, `"prio"`):
			t.Errorf("priority-absent record grew a prio key (wire format drift): %s", line)
		}
	}

	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, q = open()
	defer func() {
		q.Close(context.Background())
		st.Close()
	}()
	for id, want := range map[string]Priority{
		hi.ID: PriorityHigh, lo.ID: PriorityLow, plain.ID: PriorityNormal,
	} {
		j, err := q.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across reopen: %v", id, err)
		}
		if j.State != Queued || j.Priority != want {
			t.Errorf("job %s replayed as (%s, %q), want (queued, %q)", id, j.State, j.Priority, want)
		}
	}
	// The compacted journal must still carry the class.
	data, err = os.ReadFile(filepath.Join(dir, "queue", "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"prio":"high"`) {
		t.Error("compaction dropped the priority class")
	}
}

// BenchmarkSchedulerPick measures the steady-state pick: 8 tenants with
// deep lanes, balanced policy, one pick + front-requeue per iteration
// (so the population is constant). Tracked by cmd/benchgate in CI.
func BenchmarkSchedulerPick(b *testing.B) {
	const tenants, perTenant = 8, 64
	s := newScheduler(nil)
	jobs := make(map[string]*Job)
	prios := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
	for i := 0; i < tenants*perTenant; i++ {
		j := &Job{
			ID:       fmt.Sprintf("j%d", i),
			Tenant:   fmt.Sprintf("t%d", i%tenants),
			Priority: prios[i%3],
			Cost:     1024,
			State:    Queued,
		}
		jobs[j.ID] = j
		s.push(j)
	}
	st := PoolState{RunningJobs: 1, DrainBPS: 1 << 20, MemBudgetBytes: 256 << 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, seq, ok := s.pick(st, jobs)
		if !ok {
			b.Fatal("scheduler ran dry")
		}
		s.pushFront(jobs[id], seq)
	}
}
