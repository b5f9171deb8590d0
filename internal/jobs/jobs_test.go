package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"balarch/internal/store"
)

// testHarness is one queue over one store over one temp dir, with a
// controllable executor.
type testHarness struct {
	dir   string
	st    *store.Store
	q     *Queue
	execs atomic.Int64 // executor invocations
	fail  atomic.Bool  // executor returns an error

	mu    sync.Mutex
	block chan struct{} // non-nil: executor waits on it (nil = instant)
}

// setBlock installs (or clears) the executor gate.
func (h *testHarness) setBlock(c chan struct{}) {
	h.mu.Lock()
	h.block = c
	h.mu.Unlock()
}

func (h *testHarness) getBlock() chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.block
}

func newHarness(t *testing.T, opts Options) *testHarness {
	t.Helper()
	h := &testHarness{dir: t.TempDir()}
	h.open(t, opts)
	return h
}

// open (re)opens the store and queue on the harness dir.
func (h *testHarness) open(t *testing.T, opts Options) {
	t.Helper()
	st, err := store.Open(filepath.Join(h.dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(ctx context.Context, kind string, req json.RawMessage) ([]byte, error) {
		h.execs.Add(1)
		if gate := h.getBlock(); gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if h.fail.Load() {
			return nil, errors.New("executor told to fail")
		}
		return []byte(fmt.Sprintf(`{"kind":%q,"echo":%s}`, kind, req)), nil
	}
	q, err := Open(filepath.Join(h.dir, "queue"), st, exec, opts)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	h.st, h.q = st, q
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		h.q.Close(ctx)
		h.st.Close()
	})
}

// close shuts the harness down cleanly (drain).
func (h *testHarness) close(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.q.Close(ctx); err != nil {
		t.Fatalf("queue close: %v", err)
	}
	if err := h.st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := q.Get(id)
		if err == nil && j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (now %+v, err %v)", id, want, j, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitExecutesAndStoresResult(t *testing.T) {
	h := newHarness(t, Options{Workers: 2})
	j, existing, err := h.q.Submit("sweep", []byte(`{"n":64}`), 1024)
	if err != nil || existing {
		t.Fatalf("Submit: %v existing=%v", err, existing)
	}
	if j.ID == "" || j.State != Queued {
		t.Fatalf("submitted job = %+v", j)
	}
	done := waitState(t, h.q, j.ID, Done)
	if done.Cached {
		t.Error("first execution marked cached")
	}
	data, ok, err := h.st.Get(done.Key)
	if err != nil || !ok {
		t.Fatalf("result not in store: %v %v", ok, err)
	}
	if string(data) != `{"kind":"sweep","echo":{"n":64}}` {
		t.Errorf("stored result = %s", data)
	}
	if h.execs.Load() != 1 {
		t.Errorf("executor ran %d times, want 1", h.execs.Load())
	}
	c := h.q.Counters()
	if c.Done != 1 || c.Queued != 0 || c.Running != 0 || c.MemInUseBytes != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestIdenticalSubmitDeduplicates pins the no-re-execution acceptance
// criterion in-process: the second identical submit joins the first job,
// and after the first completes a resubmit answers done instantly.
func TestIdenticalSubmitDeduplicates(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	gate := make(chan struct{})
	h.setBlock(gate)
	req := []byte(`{"n":96}`)
	a, existing, err := h.q.Submit("sweep", req, 10)
	if err != nil || existing {
		t.Fatal(err, existing)
	}
	b, existing, err := h.q.Submit("sweep", req, 10)
	if err != nil || !existing || b.ID != a.ID {
		t.Fatalf("identical submit: existing=%v id=%s vs %s err=%v", existing, b.ID, a.ID, err)
	}
	close(gate)
	h.setBlock(nil)
	waitState(t, h.q, a.ID, Done)

	c, _, err := h.q.Submit("sweep", req, 10)
	if err != nil || c.State != Done {
		t.Fatalf("post-completion resubmit = %+v, %v", c, err)
	}
	if h.execs.Load() != 1 {
		t.Errorf("executor ran %d times for 3 identical submits, want 1", h.execs.Load())
	}
}

// TestDedupAcrossReopen is the content-addressed half of the acceptance
// criteria: a fresh queue (fresh WAL) over the same store completes an
// identical request from the store, executor untouched.
func TestDedupAcrossReopen(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	req := []byte(`{"n":128}`)
	j, _, err := h.q.Submit("sweep", req, 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, j.ID, Done)
	h.close(t)

	// Wipe the queue dir (simulate a brand-new deployment keeping only
	// the artifact store), reopen.
	if err := os.RemoveAll(filepath.Join(h.dir, "queue")); err != nil {
		t.Fatal(err)
	}
	h.open(t, Options{Workers: 1})
	k, existing, err := h.q.Submit("sweep", req, 10)
	if err != nil {
		t.Fatal(err)
	}
	if existing || k.State != Done || !k.Cached {
		t.Fatalf("resubmit over kept store = %+v existing=%v, want instant cached done", k, existing)
	}
	if h.execs.Load() != 1 {
		t.Errorf("executor ran %d times across reopen, want 1", h.execs.Load())
	}
}

// TestCrashRecoveryRequeuesInFlight is the satellite's core: kill the
// queue mid-job (no drain — the store/WAL files survive, the process
// state does not) and assert replay requeues both the running and the
// queued job, then completes them.
func TestCrashRecoveryRequeuesInFlight(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	h.setBlock(make(chan struct{}))
	running, _, err := h.q.Submit("sweep", []byte(`{"n":1}`), 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, running.ID, Running)
	queued, _, err := h.q.Submit("sweep", []byte(`{"n":2}`), 10)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: cut the running job and close the files without journaling
	// any terminal state. Close with an expired context is exactly that.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	h.q.Close(expired)
	h.st.Close()
	storeStatsBefore := func() store.Stats {
		st, err := store.Open(filepath.Join(h.dir, "store"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.Stats()
	}()

	h.setBlock(nil)
	h.open(t, Options{Workers: 1})
	c := h.q.Counters()
	if c.Replayed != 2 {
		t.Errorf("replayed = %d, want 2 (one running + one queued)", c.Replayed)
	}
	waitState(t, h.q, running.ID, Done)
	waitState(t, h.q, queued.ID, Done)

	// The reopened store replayed to the identical index.
	after := h.st.Stats()
	if after.Entries < storeStatsBefore.Entries || after.Bytes < storeStatsBefore.Bytes {
		t.Errorf("store shrank across crash: %+v then %+v", storeStatsBefore, after)
	}
}

// TestTruncatedWALTailRecovers corrupts the journal mid-record: Open must
// keep every whole record, requeue the live job, and not panic.
func TestTruncatedWALTailRecovers(t *testing.T) {
	h := newHarness(t, Options{Workers: -1}) // paused: jobs stay queued
	a, _, err := h.q.Submit("sweep", []byte(`{"n":1}`), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.q.Submit("sweep", []byte(`{"n":2}`), 10); err != nil {
		t.Fatal(err)
	}
	h.close(t)

	walPath := filepath.Join(h.dir, "queue", "jobs.wal")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the second record and append garbage for good measure.
	torn := append(raw[:len(raw)-20], []byte("\x00\xfe{not json")...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	h.open(t, Options{Workers: -1})
	if _, err := h.q.Get(a.ID); err != nil {
		t.Errorf("first (whole) record lost: %v", err)
	}
	c := h.q.Counters()
	if c.Queued != 1 || c.Replayed != 1 {
		t.Errorf("after torn tail: %+v, want 1 queued/replayed", c)
	}
	// The queue keeps accepting after the clip.
	if _, _, err := h.q.Submit("sweep", []byte(`{"n":3}`), 10); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionControl(t *testing.T) {
	h := newHarness(t, Options{Workers: -1, MemBudgetBytes: 100})
	if _, _, err := h.q.Submit("a", []byte(`1`), 60); err != nil {
		t.Fatal(err)
	}
	_, _, err := h.q.Submit("b", []byte(`2`), 60)
	var over *ErrOverBudget
	if !errors.As(err, &over) {
		t.Fatalf("over-budget submit err = %v, want ErrOverBudget", err)
	}
	if over.RetryAfter < time.Second || over.InUse != 60 || over.Budget != 100 {
		t.Errorf("ErrOverBudget = %+v", over)
	}
	// A job that fits the remainder is admitted.
	if _, _, err := h.q.Submit("c", []byte(`3`), 40); err != nil {
		t.Fatal(err)
	}
	if c := h.q.Counters(); c.MemInUseBytes != 100 {
		t.Errorf("mem in use = %d, want 100", c.MemInUseBytes)
	}
}

// TestBudgetReleasedOnCompletion: a finished job frees its footprint for
// the next admit.
func TestBudgetReleasedOnCompletion(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, MemBudgetBytes: 100})
	j, _, err := h.q.Submit("a", []byte(`1`), 80)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, j.ID, Done)
	if _, _, err := h.q.Submit("b", []byte(`2`), 80); err != nil {
		t.Fatalf("budget not released: %v", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	gate := make(chan struct{})
	h.setBlock(gate)
	defer close(gate)
	running, _, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, running.ID, Running)
	queued, _, err := h.q.Submit("b", []byte(`2`), 10)
	if err != nil {
		t.Fatal(err)
	}

	// Queued: canceled synchronously.
	if j, err := h.q.Cancel(queued.ID); err != nil || j.State != Canceled {
		t.Fatalf("cancel queued = %+v, %v", j, err)
	}
	// Running: the executor's context dies and the worker journals it.
	if _, err := h.q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, h.q, running.ID, Canceled)
	if got.Error != "" {
		t.Errorf("canceled job carries error %q", got.Error)
	}
	if _, err := h.q.Cancel("jdeadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v", err)
	}
	// Cancel of a terminal job is an idempotent no-op.
	if j, err := h.q.Cancel(running.ID); err != nil || j.State != Canceled {
		t.Errorf("re-cancel = %+v, %v", j, err)
	}
	if c := h.q.Counters(); c.Canceled != 2 || c.MemInUseBytes != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestResubmitAfterFailure: failed and canceled jobs re-run under the
// same id.
func TestResubmitAfterFailure(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	h.fail.Store(true)
	j, _, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, h.q, j.ID, Failed)
	if failed.Error == "" {
		t.Error("failed job has no error message")
	}
	// A failed job keeps its request for the resubmit to re-run; a done
	// one releases it, in memory and after a replay.
	if string(failed.Request) != `1` {
		t.Errorf("failed job's request = %q, want it kept", failed.Request)
	}
	h.fail.Store(false)
	again, existing, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil || existing || again.ID != j.ID || again.State != Queued {
		t.Fatalf("resubmit after failure = %+v existing=%v err=%v", again, existing, err)
	}
	if done := waitState(t, h.q, j.ID, Done); done.Request != nil {
		t.Errorf("done job kept its request %q", done.Request)
	}
	if h.execs.Load() != 2 {
		t.Errorf("executor ran %d times, want 2", h.execs.Load())
	}
	h.close(t)
	h.open(t, Options{Workers: 1})
	if replayed, err := h.q.Get(j.ID); err != nil || replayed.State != Done || replayed.Request != nil {
		t.Errorf("replayed done job = %+v, %v; want done with no request", replayed, err)
	}
}

func TestDeleteAndGC(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, TTL: time.Minute})
	j, _, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, j.ID, Done)

	// Live jobs refuse deletion.
	gate := make(chan struct{})
	h.setBlock(gate)
	live, _, err := h.q.Submit("b", []byte(`2`), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.q.Delete(live.ID); !errors.Is(err, ErrNotTerminal) {
		t.Errorf("deleting a live job = %v, want ErrNotTerminal", err)
	}
	close(gate)
	h.setBlock(nil)

	if err := h.q.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.q.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted job still present: %v", err)
	}

	// TTL GC: age the clock instead of sleeping.
	waitState(t, h.q, live.ID, Done)
	h.q.mu.Lock()
	h.q.clock = func() time.Time { return time.Now().Add(2 * time.Minute) }
	h.q.mu.Unlock()
	if n := h.q.GC(); n != 1 {
		t.Errorf("GC removed %d jobs, want 1", n)
	}
	if _, err := h.q.Get(live.ID); !errors.Is(err, ErrNotFound) {
		t.Error("GC'd job still present")
	}
}

// TestGCSurvivesReopen: gc records persist, so forgotten jobs stay
// forgotten after a restart.
func TestGCSurvivesReopen(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	j, _, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, j.ID, Done)
	if err := h.q.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	h.close(t)
	h.open(t, Options{Workers: -1})
	if _, err := h.q.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("gc'd job resurrected by replay: %v", err)
	}
}

// TestCompaction: replay rewrites the WAL to one submit (+ terminal) per
// surviving job, so the journal shrinks instead of growing forever.
func TestCompaction(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	var last Job
	for i := 0; i < 20; i++ {
		j, _, err := h.q.Submit("a", []byte(fmt.Sprintf(`{"i":%d}`, i)), 10)
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	waitState(t, h.q, last.ID, Done)
	// Let every job land (they share one worker and finish in order...
	// but not guaranteed; wait on all).
	all, _ := h.q.Page(nil, nil, 0)
	for _, j := range all {
		waitState(t, h.q, j.ID, Done)
	}
	h.close(t)
	walPath := filepath.Join(h.dir, "queue", "jobs.wal")
	grown, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	h.open(t, Options{Workers: -1})
	h.close(t)
	compacted, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// 20 jobs × (submit+start+done) compacts to 20 × (submit+done).
	if compacted.Size() >= grown.Size() {
		t.Errorf("WAL did not shrink: %d → %d bytes", grown.Size(), compacted.Size())
	}
	h.open(t, Options{Workers: -1})
	if c := h.q.Counters(); c.Done != 20 {
		t.Errorf("after compaction replay: %+v, want 20 done", c)
	}
}

func TestListOrder(t *testing.T) {
	h := newHarness(t, Options{Workers: -1})
	base := time.Unix(1000, 0)
	i := 0
	h.q.mu.Lock()
	h.q.clock = func() time.Time { i++; return base.Add(time.Duration(i) * time.Second) }
	h.q.mu.Unlock()
	for k := 0; k < 3; k++ {
		if _, _, err := h.q.Submit("a", []byte(fmt.Sprintf(`%d`, k)), 1); err != nil {
			t.Fatal(err)
		}
	}
	list, more := h.q.Page(nil, nil, 0)
	if len(list) != 3 || more {
		t.Fatalf("list has %d jobs", len(list))
	}
	for k := 1; k < len(list); k++ {
		if list[k].SubmittedAt.After(list[k-1].SubmittedAt) {
			t.Errorf("list not newest-first at %d", k)
		}
	}
}

func TestClosedQueueRejects(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	h.close(t)
	if _, _, err := h.q.Submit("a", []byte(`1`), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v", err)
	}
	if _, err := h.q.Cancel("j0000000000000000"); !errors.Is(err, ErrClosed) {
		t.Errorf("cancel after close = %v", err)
	}
}

// TestDrainFinishesRunningJobs: Close with budget lets the in-flight job
// finish (done, journaled) while the queued one stays queued for the next
// Open.
func TestDrainFinishesRunningJobs(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	gate := make(chan struct{})
	h.setBlock(gate)
	running, _, err := h.q.Submit("a", []byte(`1`), 10)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.q, running.ID, Running)
	queued, _, err := h.q.Submit("b", []byte(`2`), 10)
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- h.q.Close(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Close flip the flag
	close(gate)
	h.setBlock(nil)
	if err := <-closed; err != nil {
		t.Fatalf("drain close: %v", err)
	}
	h.st.Close()

	h.open(t, Options{Workers: -1})
	if j, err := h.q.Get(running.ID); err != nil || j.State != Done {
		t.Errorf("drained job = %+v, %v; want done", j, err)
	}
	if j, err := h.q.Get(queued.ID); err != nil || j.State != Queued {
		t.Errorf("journaled job = %+v, %v; want queued", j, err)
	}
}

func TestIDForDeterministic(t *testing.T) {
	id1, key1 := IDFor("sweep", []byte(`{"n":64}`))
	id2, key2 := IDFor("sweep", []byte(`{"n":64}`))
	if id1 != id2 || key1 != key2 {
		t.Error("IDFor not deterministic")
	}
	id3, _ := IDFor("batch", []byte(`{"n":64}`))
	if id3 == id1 {
		t.Error("kind does not separate ids")
	}
	if len(id1) != 17 || id1[0] != 'j' || len(key1) != 64 {
		t.Errorf("id/key shape: %q / %q", id1, key1)
	}
}
