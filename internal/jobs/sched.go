package jobs

// The pick scheduler: which queued job the next free worker starts. The
// seed queue popped a FIFO slice, blind to the footprints it had already
// estimated at admission and to who submitted what — one tenant's deep
// backlog monopolized every worker, and a burst of large jobs could hold
// more live bytes than the pool retires in any useful horizon. This file
// replaces that slice with per-tenant priority lanes under one balanced
// policy: weighted round-robin across tenants, and a memory-fit check that
// packs workers only while the aggregate footprint of running jobs stays
// balanced against the pool's measured drain rate (the paper's
// provisioning argument, applied to our own worker pool: admit work
// against measured bandwidth, not nameplate worker count).
//
// Priority classes (low|normal|high) order picks within one tenant;
// across tenants fairness wins, so one tenant cannot jump the ring by
// marking everything high. All scheduler state is guarded by Queue.mu.

import "fmt"

// Priority is a job's pick class within its tenant. The zero value is
// the normal class — internally and on the wire/WAL the normal class is
// the empty string, so priority-absent records and responses stay
// byte-identical to the pre-priority format.
type Priority string

// The three priority classes. PriorityNormal is the "" zero value;
// ParsePriority folds the explicit spelling "normal" onto it.
const (
	PriorityHigh   Priority = "high"
	PriorityNormal Priority = ""
	PriorityLow    Priority = "low"
)

// ParsePriority maps a wire or WAL spelling to a Priority: "" and
// "normal" are the normal class, "low" and "high" the explicit ones;
// anything else is an error naming the accepted set.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	}
	return PriorityNormal, fmt.Errorf("jobs: unknown priority %q (one of low, normal, high)", s)
}

// lane maps a priority to its queue index, highest first.
func (p Priority) lane() int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	}
	return 1
}

const numLanes = 3

// PoolState is the worker pool's balance picture at pick time, handed to
// the fit check.
type PoolState struct {
	// RunningJobs/RunningBytes are the in-flight count and summed
	// footprint.
	RunningJobs  int64
	RunningBytes int64
	// DrainBPS is the pool's measured retirement rate: the per-worker
	// EWMA of bytes-retired/sec times the worker count. 0 until the
	// first job finishes.
	DrainBPS float64
	// MemBudgetBytes is the admission budget (≤ 0 when disabled).
	MemBudgetBytes int64
}

// drainHorizonSeconds is how much future drain the fit check packs
// against: running footprints may sum to what the pool retires in this
// window (capped by the admission budget). Small enough that a burst of
// large jobs queues instead of all running at once; large enough that a
// healthy pool keeps every worker busy.
const drainHorizonSeconds = 2.0

// fits reports whether starting a job of this cost keeps the pool
// balanced under st: running footprints may sum to what the pool retires
// in the drain horizon, capped by the admission budget.
func fits(cost int64, st PoolState) bool {
	if st.RunningJobs == 0 {
		// Progress guarantee: an idle pool always starts the next job,
		// however large, so no job can be starved by its own footprint.
		return true
	}
	if st.DrainBPS <= 0 {
		// No drain measured yet (nothing has finished): packing against
		// an unmeasured rate would serialize the pool, so admit.
		return true
	}
	target := st.DrainBPS * drainHorizonSeconds
	if st.MemBudgetBytes > 0 && target > float64(st.MemBudgetBytes) {
		target = float64(st.MemBudgetBytes)
	}
	return float64(st.RunningBytes+cost) <= target
}

// schedEntry is one queued job's position: its id and the global
// submission sequence number that defines FIFO order within a lane.
type schedEntry struct {
	id  string
	seq uint64
}

// tenantQueue is one tenant's pending work: a deque per priority lane,
// the tenant's round-robin weight and remaining credit, and how many
// consecutive picks have bypassed it while its head was eligible.
type tenantQueue struct {
	name   string
	weight int
	credit int
	lanes  [numLanes][]schedEntry
	waited int64
}

// head returns the tenant's next entry and its lane — priority orders
// picks within the tenant, so the first nonempty lane, highest first,
// wins — pruning entries whose job is gone or no longer queued (canceled,
// GC'd, or already picked via a duplicate entry).
func (tq *tenantQueue) head(jobs map[string]*Job) (schedEntry, int, bool) {
	for lane := 0; lane < numLanes; lane++ {
		q := tq.lanes[lane]
		for len(q) > 0 {
			e := q[0]
			if j, ok := jobs[e.id]; ok && j.State == Queued {
				break
			}
			q = q[1:]
		}
		tq.lanes[lane] = q
		if len(q) > 0 {
			return q[0], lane, true
		}
	}
	return schedEntry{}, 0, false
}

// scheduler holds the pending set and the pick bookkeeping. All access
// is under Queue.mu.
type scheduler struct {
	seq     uint64
	tenants map[string]*tenantQueue
	ring    []*tenantQueue // round-robin order: tenants in first-seen order
	cursor  int
	weights map[string]int

	picks   int64
	skips   int64
	maxWait int64
	served  map[string]int64
}

func newScheduler(weights map[string]int) *scheduler {
	return &scheduler{
		tenants: make(map[string]*tenantQueue),
		weights: weights,
		served:  make(map[string]int64),
	}
}

// tq returns (creating on first use) the tenant's queue. A new tenant
// joins the ring at the end with its configured weight (default 1).
func (s *scheduler) tq(name string) *tenantQueue {
	if tq, ok := s.tenants[name]; ok {
		return tq
	}
	w := s.weights[name]
	if w <= 0 {
		w = 1
	}
	tq := &tenantQueue{name: name, weight: w, credit: w}
	s.tenants[name] = tq
	s.ring = append(s.ring, tq)
	return tq
}

// push appends a job at the back of its tenant's priority lane with a
// fresh sequence number.
func (s *scheduler) push(j *Job) {
	s.seq++
	tq := s.tq(j.Tenant)
	lane := j.Priority.lane()
	tq.lanes[lane] = append(tq.lanes[lane], schedEntry{id: j.ID, seq: s.seq})
}

// pushFront returns a picked-but-not-started job to the head of its lane
// with its original sequence number, so a WAL hiccup cannot silently
// reorder submissions.
func (s *scheduler) pushFront(j *Job, seq uint64) {
	tq := s.tq(j.Tenant)
	lane := j.Priority.lane()
	tq.lanes[lane] = append([]schedEntry{{id: j.ID, seq: seq}}, tq.lanes[lane]...)
}

// pick chooses the next job to start under pool state st, removes its
// entry, and returns its id and sequence number. ok=false means nothing
// pending fits right now (the caller waits for a signal: a new
// submission, a job finishing, or shutdown).
func (s *scheduler) pick(st PoolState, jobs map[string]*Job) (id string, seq uint64, ok bool) {
	n := len(s.ring)
	for i := 0; i < n; i++ {
		tq := s.ring[(s.cursor+i)%n]
		e, lane, ok := tq.head(jobs)
		if !ok {
			continue
		}
		if !fits(jobs[e.id].Cost, st) {
			s.skips++
			continue
		}
		tq.lanes[lane] = tq.lanes[lane][1:]
		// Weighted round-robin: the tenant keeps the cursor until its
		// credit is spent, then the next pick starts at its successor.
		tq.credit--
		if tq.credit <= 0 {
			tq.credit = tq.weight
			s.cursor = (s.cursor + i + 1) % n
		} else {
			s.cursor = (s.cursor + i) % n
		}
		s.account(tq, st, jobs)
		return e.id, e.seq, true
	}
	return "", 0, false
}

// account updates the fairness bookkeeping after a pick:
// served counters, and the bypassed-while-eligible wait of every other
// tenant (reset when a tenant is served or observed ineligible, so
// waited counts consecutive eligible bypasses — the quantity the
// weighted round-robin bounds at Σweights − weight(t)).
func (s *scheduler) account(served *tenantQueue, st PoolState, jobs map[string]*Job) {
	s.picks++
	s.served[served.name]++
	if served.waited > s.maxWait {
		s.maxWait = served.waited
	}
	served.waited = 0
	for _, tq := range s.ring {
		if tq == served {
			continue
		}
		if e, _, ok := tq.head(jobs); ok && fits(jobs[e.id].Cost, st) {
			tq.waited++
			if tq.waited > s.maxWait {
				s.maxWait = tq.waited
			}
		} else {
			tq.waited = 0
		}
	}
}

// SchedCounters is the scheduler's instrumentation snapshot, served
// under the jobs_sched_* keys of /metrics.
type SchedCounters struct {
	// Policy names the pick policy; always "balanced".
	Policy string `json:"policy"`
	// Picks counts jobs handed to workers; Skips counts pick passes
	// that bypassed a pending job because its footprint did not fit the
	// pool's drain-rate target.
	Picks int64 `json:"picks"`
	Skips int64 `json:"skips"`
	// MaxWaitPicks is the worst consecutive-bypass count any tenant
	// with eligible pending work has seen — the fairness bound holds
	// when it stays at or under Σweights − weight(t).
	MaxWaitPicks int64 `json:"max_wait_picks"`
	// DrainBPS is the pool's measured retirement rate (bytes/sec);
	// RunningBytes the in-flight footprint packed against it.
	DrainBPS     float64 `json:"drain_bps"`
	RunningBytes int64   `json:"running_bytes"`
	// SelfState is the analytic core's verdict on the queue itself
	// (AnalyzeHierarchy over the drain/WAL/budget machine description):
	// "idle", "balanced", "memory-bound", or "compute-bound".
	SelfState string `json:"self_state"`
	// ServedByTenant counts picks per tenant name ("" is anonymous).
	ServedByTenant map[string]int64 `json:"served_by_tenant,omitempty"`
}
