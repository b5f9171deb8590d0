// Package jobs is the durable async half of balance-as-a-service: a
// write-ahead-logged job queue that lets the API accept work bigger than
// one request timeout and keep its promises across crashes. Submit
// journals the typed request to the WAL *before* acknowledging, workers
// execute through an injected executor (the server wires it to the same
// core operations the synchronous endpoints use, which run on
// engine.Pool underneath), and results land in a content-addressed
// internal/store — so an identical request resubmitted later, even after
// a restart, completes without re-execution.
//
// States move queued → running → done | failed | canceled. On Open the
// WAL is replayed: jobs that were queued or running when the process
// died are requeued (counted in Counters.Replayed), terminal jobs are
// restored for status queries, and a torn final record — the crash
// signature — is clipped, never a panic. Admission control is
// memory-aware (cf. Silva et al., "Memory Aware Load Balance Strategy"):
// every job carries a caller-estimated footprint in bytes, the queue
// holds the sum of queued+running footprints under a budget, and a
// submit that would exceed it returns ErrOverBudget for the server to
// map to 429 + Retry-After. Terminal jobs are garbage-collected after a
// TTL; Close drains running jobs and leaves the rest journaled for the
// next Open.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"balarch/internal/model"
	"balarch/internal/store"
)

// State is a job's lifecycle position.
type State string

// The five job states. Queued and Running are live (they hold admission
// budget and survive a crash by being requeued); Done, Failed, and
// Canceled are terminal.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Job is one unit of journaled work. Copies are returned to callers; the
// queue owns the originals.
type Job struct {
	// ID is derived from the content key ("j" + its first 16 hex chars),
	// so identical requests share one job and clients can compute the id
	// of work they are about to submit.
	ID string `json:"id"`
	// Kind names the operation ("sweep", "batch", "analyze", …); the
	// executor switches on it.
	Kind string `json:"kind"`
	// Request is the canonical request body journaled at submit. A Done
	// job releases it, since executing was its only use and a done job
	// never runs again; WAL compaction then journals it without one.
	// Failed and canceled jobs keep theirs, because a resubmit re-runs
	// that request.
	Request json.RawMessage `json:"request"`
	// Key is the full content address: results live under it in the store.
	Key string `json:"key"`
	// Cost is the caller-estimated memory footprint in bytes, held
	// against the admission budget while the job is live.
	Cost int64 `json:"cost"`
	// Tenant names the submitter for per-tenant admission accounting.
	// Empty means the anonymous tenant (and keeps old WALs replayable:
	// a record without the field folds to the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the pick class within the tenant (low|normal|high).
	// The zero value is normal and is omitted everywhere it is
	// serialized, so priority-absent jobs round-trip byte-identical to
	// the pre-priority format.
	Priority Priority `json:"priority,omitempty"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Cached reports the job completed from the store without executing.
	Cached bool `json:"cached,omitempty"`
	// Error is the failure message of a Failed job.
	Error string `json:"error,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt stamp the transitions.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	cancelRequested bool
	cancel          context.CancelFunc
}

// IDFor derives the job id and full content key for a (kind, canonical
// request) pair. Exported so clients and load generators can predict the
// id of work before (or without) submitting it.
func IDFor(kind string, canonicalRequest []byte) (id, key string) {
	key = store.Key(append([]byte(kind+"\n"), canonicalRequest...))
	return "j" + key[:16], key
}

// Exec runs one job: kind names the operation, req is the canonical
// request. The returned bytes are the durable result — for the server's
// executor, the exact body the synchronous endpoint would have written.
type Exec func(ctx context.Context, kind string, req json.RawMessage) ([]byte, error)

// ErrOverBudget is returned by Submit when admitting the job would push
// the sum of live footprints past the memory budget — the global one, or
// the submitting tenant's own partition (Tenant names which; empty means
// the global budget refused). RetryAfter is the server's hint for the
// 429 Retry-After header.
type ErrOverBudget struct {
	Cost, InUse, Budget int64
	RetryAfter          time.Duration
	// Tenant is the tenant whose partition refused the job; empty when
	// the global budget did.
	Tenant string
}

func (e *ErrOverBudget) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("jobs: admission denied for tenant %q: job needs %d bytes, %d of %d in use",
			e.Tenant, e.Cost, e.InUse, e.Budget)
	}
	return fmt.Sprintf("jobs: admission denied: job needs %d bytes, %d of %d in use",
		e.Cost, e.InUse, e.Budget)
}

// ErrClosed is returned by Submit and Cancel after Close.
var ErrClosed = errors.New("jobs: queue closed")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("jobs: no such job")

// ErrNotTerminal is returned by Delete for a job still queued or
// running (Cancel it first). A state conflict, not a caller bug — the
// server maps it to 409.
var ErrNotTerminal = errors.New("jobs: job is not in a terminal state")

// Options tunes a Queue. The zero value is production-ready.
type Options struct {
	// Workers is the number of executor goroutines. 0 means 2; negative
	// means none — the queue accepts and journals but executes nothing
	// (a paused queue: what a draining daemon leaves behind, and what
	// the restart tests use to pin a job in the queued state).
	Workers int
	// MemBudgetBytes caps the summed footprint of queued+running jobs.
	// 0 means 256 MiB; negative disables admission control.
	MemBudgetBytes int64
	// TTL is how long terminal jobs remain queryable before GC. 0 means
	// 15 minutes; negative disables GC.
	TTL time.Duration
	// JobTimeout bounds one job's execution. 0 means no per-job deadline
	// (the executor's own budgets apply).
	JobTimeout time.Duration
	// TenantBudgets partitions the admission budget per tenant: a
	// SubmitFor under a listed tenant is additionally held under that
	// tenant's own byte cap, so one tenant's backlog cannot consume the
	// whole global budget. Unlisted tenants (and the "" anonymous
	// tenant, unless listed) see only the global budget.
	TenantBudgets map[string]int64
	// TenantWeights sets per-tenant weights for the scheduler's weighted
	// round-robin: a tenant with weight w is picked w times per round.
	// Unlisted tenants (including "" anonymous) weigh 1; values ≤ 0 are
	// treated as 1.
	TenantWeights map[string]int
	// Notify, when non-nil, is called after every job state transition
	// with a copy of the job. It runs under the queue's lock: it must be
	// fast and must not call back into the Queue (the server's event bus
	// only touches its own mutex). Transitions cut by shutdown (a job
	// requeued because the daemon is draining) are not notified — the
	// subscriber's stream is being torn down anyway.
	Notify func(Job)
	// Observe, when non-nil, receives the duration of each pipeline
	// stage a job moves through: "admit" (lock-held submit work, WAL
	// sync included), "wal_append" (one journal append+sync),
	// "sched_pick" (one successful scheduler pick), "queued" (submit →
	// start wait), "run" (executor or store-completion time), and
	// "publish" (the Notify fan-out). Like Notify it may run under the
	// queue's lock: it must be fast and must not call back into the
	// Queue (the server's feeds atomic histograms).
	Observe func(stage string, d time.Duration)
}

const (
	defaultWorkers   = 2
	defaultMemBudget = 256 << 20
	defaultTTL       = 15 * time.Minute

	// Retry-After bounds: never advise less than a second (a tighter
	// loop is a retry storm) or more than a minute (past that the hint
	// is a guess, and a paused queue would otherwise advise infinity).
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute

	// WAL start-append failure backoff, shared by all workers: first
	// retry after walRetryMin, doubling to walRetryMax. (Practically:
	// a full disk — hammering it from N workers helps nobody.)
	walRetryMin = 100 * time.Millisecond
	walRetryMax = 5 * time.Second

	// drainAlpha is the EWMA weight of the newest bytes-retired/sec
	// sample in the per-worker drain estimate.
	drainAlpha = 0.3

	// selfModelWordBytes converts the queue's byte-denominated rates to
	// the analytic model's word-denominated ones for self-analysis.
	selfModelWordBytes = 8
)

// Counters is the queue's instrumentation snapshot, served under the
// jobs_* keys of /metrics.
type Counters struct {
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	// Replayed counts jobs a WAL replay requeued (they were queued or
	// in flight when the previous process died).
	Replayed int64 `json:"replayed"`
	// MemInUseBytes/MemBudgetBytes expose the admission state.
	MemInUseBytes  int64 `json:"mem_in_use_bytes"`
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
}

// Queue is a durable job queue on one directory. All methods are safe for
// concurrent use. Open one per directory.
type Queue struct {
	dir   string
	st    *store.Store
	exec  Exec
	opts  Options
	clock func() time.Time // injectable for TTL tests

	mu   sync.Mutex
	cond *sync.Cond // signals workers: pending work or shutdown
	jobs map[string]*Job
	// order holds every job in q.jobs in reverse list order: oldest
	// position first, so a fresh submit (the newest) is an append and a
	// page walks back from the end (index.go).
	order       []*Job
	sched       *scheduler // pending set: per-tenant priority lanes (sched.go)
	wal         *os.File
	walSize     int64 // current WAL length; the clip-back offset for torn appends
	memInUse    int64
	memByTenant map[string]int64 // live footprint per tenant (parallel to memInUse)
	running     int64
	// runningBytes is the summed footprint of running jobs — the
	// quantity the balanced policy packs against the drain rate.
	runningBytes int64
	// drainPerWorker is the EWMA of bytes-retired/sec over finished
	// jobs; drainSamples counts contributions (0 = no measurement yet).
	drainPerWorker float64
	drainSamples   int64
	// walRetryAt/walBackoff gate all workers together after a failed
	// start append: no worker picks before walRetryAt.
	walRetryAt time.Time
	walBackoff time.Duration
	// walBytes/openedAt measure the journal fill rate for self-analysis.
	walBytes int64
	openedAt time.Time
	replayed int64
	lastGC   time.Time
	closed   bool

	// walAppendHook, when non-nil, runs before every journaled record and
	// can inject a failure that fails the whole append (tests only; op is
	// the record's op field).
	walAppendHook func(op string) error

	workers  sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc
}

// Open opens (creating if needed) the queue journaled in dir, replaying
// the WAL: terminal jobs are restored for status queries, live jobs are
// requeued, and a torn tail is clipped. Results are stored in st; exec
// runs the work. Close the queue before closing the store.
func Open(dir string, st *store.Store, exec Exec, opts Options) (*Queue, error) {
	if st == nil || exec == nil {
		return nil, errors.New("jobs: Open needs a store and an executor")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if opts.Workers == 0 {
		opts.Workers = defaultWorkers
	}
	if opts.MemBudgetBytes == 0 {
		opts.MemBudgetBytes = defaultMemBudget
	}
	if opts.TTL == 0 {
		opts.TTL = defaultTTL
	}
	q := &Queue{
		dir:         dir,
		st:          st,
		exec:        exec,
		opts:        opts,
		clock:       time.Now,
		jobs:        make(map[string]*Job),
		memByTenant: make(map[string]int64),
		sched:       newScheduler(opts.TenantWeights),
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.baseStop = context.WithCancel(context.Background())
	q.openedAt = q.clock()

	if err := q.replayAndCompact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(q.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening WAL: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: stat WAL: %w", err)
	}
	q.wal, q.walSize = f, info.Size()

	for w := 0; w < opts.Workers; w++ {
		q.workers.Add(1)
		go q.worker()
	}
	return q, nil
}

func (q *Queue) walPath() string { return filepath.Join(q.dir, "jobs.wal") }

// Submit journals and admits one job under the anonymous tenant at
// normal priority. See SubmitFor.
func (q *Queue) Submit(kind string, canonicalReq []byte, cost int64) (Job, bool, error) {
	return q.SubmitFor("", kind, canonicalReq, cost, PriorityNormal)
}

// SubmitFor journals and admits one job on behalf of tenant ("" is
// anonymous) at the given priority. The request must already be
// canonical (the server re-marshals decoded DTOs, so equal requests
// have equal bytes). Identical requests share one job regardless of
// tenant or priority: a live or done job for the same content key is
// returned as-is (existing=true) and keeps its original tenant's
// accounting and priority — content addressing deliberately wins over
// isolation, since the work is literally the same. A failed or canceled
// job is reset to queued and re-run, charged to the resubmitting tenant
// at the resubmitted priority. A job whose result is already in the
// store completes instantly, without execution, marked Cached. The WAL
// record is synced before SubmitFor returns — the ack is the durability
// point.
func (q *Queue) SubmitFor(tenant, kind string, canonicalReq []byte, cost int64, prio Priority) (Job, bool, error) {
	if cost < 0 {
		cost = 0
	}
	id, key := IDFor(kind, canonicalReq)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.opts.Observe != nil {
		// The "admit" stage is everything the submit ack waits on under
		// the lock: dedup, budget check, and the synced WAL append.
		t0 := time.Now()
		defer func() { q.opts.Observe("admit", time.Since(t0)) }()
	}
	if q.closed {
		return Job{}, false, ErrClosed
	}
	if j, ok := q.jobs[id]; ok {
		switch j.State {
		case Queued, Running, Done:
			return *j, true, nil
		case Failed, Canceled:
			// Resubmit of a dead job: same id, fresh run, charged to the
			// resubmitting tenant (the original's budget was released at
			// its finish).
			if err := q.admit(tenant, cost); err != nil {
				return Job{}, false, err
			}
			now := q.clock()
			if err := q.appendWAL(walRecord{Op: "submit", ID: id, Kind: kind,
				Req: canonicalReq, Cost: cost, Key: key, Tenant: tenant,
				Prio: string(prio), T: now}); err != nil {
				return Job{}, false, err
			}
			j.State = Queued
			j.Cost = cost
			j.Tenant = tenant
			j.Priority = prio
			j.Error = ""
			j.Cached = false
			j.cancelRequested = false
			q.resubmitLocked(j, now)
			j.StartedAt = time.Time{}
			j.FinishedAt = time.Time{}
			q.memInUse += cost
			q.memByTenant[tenant] += cost
			q.enqueueLocked(j)
			q.notifyLocked(j)
			return *j, false, nil
		}
	}

	now := q.clock()
	j := &Job{
		ID: id, Kind: kind, Key: key, Cost: cost, Tenant: tenant,
		Priority: prio, State: Queued, SubmittedAt: now,
	}
	if q.st.Has(key) {
		// The content-addressed dedup across restarts: the result of an
		// identical past request is on disk, so this job is born done.
		if err := q.appendWAL(walRecord{Op: "submit", ID: id, Kind: kind,
			Req: canonicalReq, Cost: cost, Key: key, Tenant: tenant,
			Prio: string(prio), T: now}); err != nil {
			return Job{}, false, err
		}
		if err := q.appendWAL(walRecord{Op: "done", ID: id, Key: key, Cached: true, T: now}); err != nil {
			return Job{}, false, err
		}
		j.State = Done
		j.Cached = true
		j.FinishedAt = now
		q.addLocked(j)
		q.notifyLocked(j)
		return *j, false, nil
	}
	if err := q.admit(tenant, cost); err != nil {
		return Job{}, false, err
	}
	if err := q.appendWAL(walRecord{Op: "submit", ID: id, Kind: kind,
		Req: canonicalReq, Cost: cost, Key: key, Tenant: tenant,
		Prio: string(prio), T: now}); err != nil {
		return Job{}, false, err
	}
	j.Request = append([]byte(nil), canonicalReq...)
	q.addLocked(j)
	q.memInUse += cost
	q.memByTenant[tenant] += cost
	q.enqueueLocked(j)
	q.notifyLocked(j)
	return *j, false, nil
}

// admit enforces the byte budgets (callers hold q.mu): the submitting
// tenant's partition first — the more specific refusal — then the
// global cap.
func (q *Queue) admit(tenant string, cost int64) error {
	if budget := q.opts.TenantBudgets[tenant]; budget > 0 && q.memByTenant[tenant]+cost > budget {
		return &ErrOverBudget{Cost: cost, InUse: q.memByTenant[tenant],
			Budget: budget, RetryAfter: q.retryAfterLocked(cost), Tenant: tenant}
	}
	if q.opts.MemBudgetBytes < 0 {
		return nil
	}
	if q.memInUse+cost > q.opts.MemBudgetBytes {
		return &ErrOverBudget{Cost: cost, InUse: q.memInUse,
			Budget: q.opts.MemBudgetBytes, RetryAfter: q.retryAfterLocked(cost)}
	}
	return nil
}

// retryAfterLocked estimates when a footprint of cost bytes will
// plausibly fit (callers hold q.mu): the live backlog plus the new job,
// divided by the measured drain rate. A paused queue (Workers < 0)
// drains nothing, so the hint is the cap — not the old "1s" lie that
// made clients hammer a queue that cannot make progress. Before the
// first drain sample the seed heuristic (one second per running job)
// stands in. Clamped to [minRetryAfter, maxRetryAfter].
func (q *Queue) retryAfterLocked(cost int64) time.Duration {
	if q.opts.Workers < 0 {
		return maxRetryAfter
	}
	if drain := q.drainBPSLocked(); drain > 0 {
		d := time.Duration(float64(q.memInUse+cost) / drain * float64(time.Second))
		return min(max(d, minRetryAfter), maxRetryAfter)
	}
	retry := time.Duration(1+q.running) * time.Second
	return min(max(retry, minRetryAfter), maxRetryAfter)
}

// drainBPSLocked is the pool's measured retirement rate: the per-worker
// EWMA times the worker count. 0 before the first finished job (or on a
// paused queue).
func (q *Queue) drainBPSLocked() float64 {
	if q.opts.Workers <= 0 {
		return 0
	}
	return q.drainPerWorker * float64(q.opts.Workers)
}

// poolStateLocked snapshots the balance picture the pick policy sees.
func (q *Queue) poolStateLocked() PoolState {
	return PoolState{
		RunningJobs:    q.running,
		RunningBytes:   q.runningBytes,
		DrainBPS:       q.drainBPSLocked(),
		MemBudgetBytes: q.opts.MemBudgetBytes,
	}
}

// observeStage delivers one stage duration to the Observe hook.
func (q *Queue) observeStage(stage string, d time.Duration) {
	if q.opts.Observe != nil {
		q.opts.Observe(stage, d)
	}
}

// notifyLocked delivers one transition to the Notify hook (callers hold
// q.mu; the hook gets a copy). The fan-out is timed as the "publish"
// stage — the event bus runs inside it, so a slow subscriber shows up
// here.
func (q *Queue) notifyLocked(j *Job) {
	if q.opts.Notify == nil {
		return
	}
	t0 := time.Now()
	q.opts.Notify(*j)
	q.observeStage("publish", time.Since(t0))
}

func (q *Queue) enqueueLocked(j *Job) {
	q.sched.push(j)
	q.cond.Signal()
}

// worker executes pending jobs until shutdown.
func (q *Queue) worker() {
	defer q.workers.Done()
	for {
		q.mu.Lock()
		var (
			id  string
			seq uint64
		)
		for {
			if q.closed {
				// Drain mode: whatever is still pending stays journaled
				// for the next Open; this worker only finishes what it
				// started.
				q.mu.Unlock()
				return
			}
			if !q.walRetryAt.IsZero() && q.clock().Before(q.walRetryAt) {
				// A start append just failed; every worker holds off
				// until the shared backoff expires (an AfterFunc
				// broadcasts then).
				q.cond.Wait()
				continue
			}
			var ok bool
			t0 := time.Now()
			if id, seq, ok = q.sched.pick(q.poolStateLocked(), q.jobs); ok {
				q.observeStage("sched_pick", time.Since(t0))
				break
			}
			// Nothing pending fits right now; a submission, a finished
			// job, or shutdown will signal.
			q.cond.Wait()
		}
		j := q.jobs[id]
		now := q.clock()
		// The start record is not synced (see the wal.go header), but a
		// failed write still pauses the queue rather than running jobs
		// the journal cannot follow.
		if err := q.writeWAL(false, []walRecord{{Op: "start", ID: id, T: now}}); err != nil {
			// The journal is the source of truth; without it the start
			// cannot be recorded, so the job goes back to the *front* of
			// its lane at its original sequence number — a WAL hiccup
			// must not reorder submissions — and all workers share one
			// doubling backoff instead of hot-spinning on a disk that
			// just refused a write. (Practically: a full disk.)
			q.sched.pushFront(j, seq)
			d := min(max(2*q.walBackoff, walRetryMin), walRetryMax)
			q.walBackoff = d
			q.walRetryAt = now.Add(d)
			time.AfterFunc(d, func() {
				q.mu.Lock()
				q.cond.Broadcast()
				q.mu.Unlock()
			})
			q.mu.Unlock()
			continue
		}
		q.walBackoff = 0
		q.walRetryAt = time.Time{}
		j.State = Running
		j.StartedAt = now
		q.observeStage("queued", now.Sub(j.SubmittedAt))
		q.running++
		q.runningBytes += j.Cost
		q.notifyLocked(j)
		var (
			ctx    context.Context
			cancel context.CancelFunc
		)
		if q.opts.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(q.baseCtx, q.opts.JobTimeout)
		} else {
			ctx, cancel = context.WithCancel(q.baseCtx)
		}
		j.cancel = cancel
		kind, req, key := j.Kind, j.Request, j.Key
		q.mu.Unlock()

		q.runOne(ctx, cancel, id, kind, req, key)
	}
}

// runOne executes one started job and journals its terminal state.
func (q *Queue) runOne(ctx context.Context, cancel context.CancelFunc, id, kind string, req json.RawMessage, key string) {
	defer cancel()

	var (
		result []byte
		err    error
		cached bool
	)
	t0 := time.Now()
	if data, ok, gerr := q.st.Get(key); gerr == nil && ok {
		// A WAL-replayed twin (or an operator restoring blobs) already
		// produced this result; completing from the store is the point
		// of content addressing.
		result, cached = data, true
	} else {
		result, err = q.exec(ctx, kind, req)
	}
	runDur := time.Since(t0)
	var putErr error
	if err == nil && !cached {
		// Store the result before taking the queue lock: a put is an
		// fsync, and no submit, poll or page should wait behind it.
		putErr = q.st.Put(key, result)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	q.observeStage("run", runDur)
	j, ok := q.jobs[id]
	if !ok {
		return
	}
	q.running--
	q.runningBytes -= j.Cost
	now := q.clock()
	switch {
	case err == nil:
		if putErr != nil {
			// Result computed but not durable: fail the job rather than
			// pretend; a resubmit re-runs it.
			q.finishLocked(j, Failed, now, fmt.Sprintf("storing result: %v", putErr))
			return
		}
		j.Cached = cached
		_ = q.appendWAL(walRecord{Op: "done", ID: id, Key: key, Cached: cached, T: now})
		q.finishLocked(j, Done, now, "")
	case j.cancelRequested:
		_ = q.appendWAL(walRecord{Op: "cancel", ID: id, T: now})
		q.finishLocked(j, Canceled, now, "")
	case q.baseCtx.Err() != nil:
		// Queue shutdown cut the job mid-run. Write no terminal record:
		// the WAL still says "running", so the next Open requeues it —
		// crash semantics, deliberately.
		j.State = Queued
		j.StartedAt = time.Time{}
	default:
		_ = q.appendWAL(walRecord{Op: "fail", ID: id, Error: err.Error(), T: now})
		q.finishLocked(j, Failed, now, err.Error())
	}
}

// finishLocked moves j to a terminal state, releases its budget (global
// and per-tenant) and, when it is Done, its request, folds the job's
// bytes-retired/sec into the drain EWMA, and notifies. The broadcast is
// load-bearing: a finished job changes what fits, so every waiting
// worker must re-evaluate its pick.
func (q *Queue) finishLocked(j *Job, s State, now time.Time, errMsg string) {
	if !j.StartedAt.IsZero() && j.Cost > 0 {
		if dur := now.Sub(j.StartedAt).Seconds(); dur > 0 {
			sample := float64(j.Cost) / dur
			if q.drainSamples == 0 {
				q.drainPerWorker = sample
			} else {
				q.drainPerWorker = drainAlpha*sample + (1-drainAlpha)*q.drainPerWorker
			}
			q.drainSamples++
		}
	}
	j.State = s
	j.Error = errMsg
	j.FinishedAt = now
	j.cancel = nil
	if s == Done {
		j.Request = nil
	}
	q.memInUse -= j.Cost
	q.memByTenant[j.Tenant] -= j.Cost
	q.notifyLocked(j)
	q.cond.Broadcast()
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return *j, nil
}

// Cancel stops a job: a queued job is canceled immediately, a running
// job's context is cancelled (the worker journals the terminal state when
// the executor returns), a terminal job is left alone (no error — cancel
// is idempotent).
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, ErrClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.State {
	case Queued:
		now := q.clock()
		if err := q.appendWAL(walRecord{Op: "cancel", ID: id, T: now}); err != nil {
			return Job{}, err
		}
		q.finishLocked(j, Canceled, now, "")
	case Running:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return *j, nil
}

// Delete removes a terminal job's record (the stored result blob stays —
// it is content-addressed and may serve other submissions). Deleting a
// live job is an error; Cancel it first.
func (q *Queue) Delete(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if !j.State.Terminal() {
		return fmt.Errorf("job %s is %s; cancel it before deleting: %w", id, j.State, ErrNotTerminal)
	}
	if err := q.appendWAL(walRecord{Op: "gc", ID: id, T: q.clock()}); err != nil {
		return err
	}
	q.removeLocked(j)
	return nil
}

// GC removes terminal jobs older than the TTL and returns how many went.
// The server calls it opportunistically on the submit and list paths, so
// it throttles itself: a full-table sweep runs at most once per TTL/4
// (clamped to [1s, 1min]); inside that window it is one time comparison
// under the lock, cheap enough for a hot path. A sweep journals every
// expiry with one write and one fsync; if that append fails, no job is
// forgotten.
func (q *Queue) GC() int {
	if q.opts.TTL < 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0
	}
	interval := min(max(q.opts.TTL/4, time.Second), time.Minute)
	now := q.clock()
	if now.Sub(q.lastGC) < interval {
		return 0
	}
	q.lastGC = now
	cutoff := now.Add(-q.opts.TTL)
	expired := func(j *Job) bool { return j.State.Terminal() && j.FinishedAt.Before(cutoff) }
	var recs []walRecord
	for _, j := range q.order {
		if expired(j) {
			recs = append(recs, walRecord{Op: "gc", ID: j.ID, T: now})
		}
	}
	if len(recs) == 0 || q.appendWAL(recs...) != nil {
		return 0
	}
	q.removeWhereLocked(expired)
	return len(recs)
}

// Counters snapshots the queue's instrumentation.
func (q *Queue) Counters() Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := Counters{
		Replayed:       q.replayed,
		MemInUseBytes:  q.memInUse,
		MemBudgetBytes: q.opts.MemBudgetBytes,
	}
	for _, j := range q.jobs {
		switch j.State {
		case Queued:
			c.Queued++
		case Running:
			c.Running++
		case Done:
			c.Done++
		case Failed:
			c.Failed++
		case Canceled:
			c.Canceled++
		}
	}
	return c
}

// TenantCounters is one tenant's slice of the admission state.
type TenantCounters struct {
	MemInUseBytes  int64 `json:"mem_in_use_bytes"`
	MemBudgetBytes int64 `json:"mem_budget_bytes"` // 0 = no per-tenant cap
}

// TenantCounters snapshots the per-tenant admission accounting: every
// tenant with a configured partition or a live footprint.
func (q *Queue) TenantCounters() map[string]TenantCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]TenantCounters, len(q.opts.TenantBudgets))
	for tenant, budget := range q.opts.TenantBudgets {
		out[tenant] = TenantCounters{MemBudgetBytes: budget}
	}
	for tenant, inUse := range q.memByTenant {
		c := out[tenant]
		c.MemInUseBytes = inUse
		out[tenant] = c
	}
	return out
}

// SchedCounters snapshots the scheduler's instrumentation, including
// the analytic core's self-analysis verdict on the queue.
func (q *Queue) SchedCounters() SchedCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	served := make(map[string]int64, len(q.sched.served))
	for tenant, n := range q.sched.served {
		served[tenant] = n
	}
	return SchedCounters{
		Policy:         "balanced",
		Picks:          q.sched.picks,
		Skips:          q.sched.skips,
		MaxWaitPicks:   q.sched.maxWait,
		DrainBPS:       q.drainBPSLocked(),
		RunningBytes:   q.runningBytes,
		SelfState:      q.selfStateLocked(),
		ServedByTenant: served,
	}
}

// selfStateLocked dogfoods the analytic core on the daemon itself: the
// queue is a one-level "machine" whose compute bandwidth is the pool's
// measured drain rate, whose memory is the admission budget, and whose
// I/O boundary is the WAL — filled at the journal's observed append
// rate. AnalyzeHierarchy then classifies the queue the way the paper
// classifies a PE: "memory-bound" (the model's I/O-bound: intake
// outruns what the budgeted memory lets the pool absorb) or
// "compute-bound" (the workers are the limiter; the WAL boundary is
// underused). "idle" means there is not yet a measured drain or fill
// rate to analyze.
func (q *Queue) selfStateLocked() string {
	drain := q.drainBPSLocked()
	elapsed := q.clock().Sub(q.openedAt).Seconds()
	if drain <= 0 || elapsed <= 0 || q.walBytes == 0 {
		return "idle"
	}
	fill := float64(q.walBytes) / elapsed
	budget := q.opts.MemBudgetBytes
	if budget <= 0 {
		budget = defaultMemBudget
	}
	words := float64(budget) / selfModelWordBytes
	h := model.Hierarchy{
		C: drain / selfModelWordBytes,
		Levels: []model.Level{
			{Name: "queue", BW: fill / selfModelWordBytes, M: words},
		},
	}
	a, err := model.AnalyzeHierarchy(h, model.Sorting(), words)
	if err != nil {
		return "idle"
	}
	switch a.State {
	case model.IOBound:
		return "memory-bound"
	case model.ComputeBound:
		return "compute-bound"
	}
	return "balanced"
}

// Close drains the queue: no new submissions, workers finish the jobs
// they are running (until ctx expires, at which point they are cut and
// will requeue on the next Open), and queued jobs stay journaled. The WAL
// is closed last.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		q.workers.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		// Grace expired: cut running jobs. They wrote no terminal record,
		// so replay requeues them — the same guarantee a crash gets.
		q.baseStop()
		<-finished
		err = ctx.Err()
	}
	q.baseStop()
	q.mu.Lock()
	werr := q.wal.Close()
	q.mu.Unlock()
	if err == nil {
		err = werr
	}
	return err
}
