package server

// The async jobs surface: POST /v1/jobs accepts the same {op, request}
// envelope as a batch item but executes it durably — journaled to a WAL
// before the ack, run by queue workers through the same core operations
// the synchronous endpoints use, result stored content-addressed so an
// identical request (even after a restart) never re-executes. GET
// /v1/jobs lists, GET /v1/jobs/{id} polls, GET /v1/jobs/{id}/result
// returns the byte-identical body the synchronous endpoint would have
// written, DELETE /v1/jobs/{id} cancels a live job or forgets a terminal
// one. Admission is memory-aware: every job carries an estimated
// footprint (priced by its op row's check, ops.go), and a submit that
// would push the live sum past the budget is 429 with Retry-After.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"balarch/internal/jobs"
)

// JobSubmitRequest is the POST /v1/jobs body: the batch-item envelope,
// executed asynchronously.
type JobSubmitRequest struct {
	// Op selects the operation ("analyze", "rebalance", "roofline",
	// "sweep", "experiment", "batch").
	Op string `json:"op"`
	// Request is that operation's request body.
	Request json.RawMessage `json:"request"`
	// Priority is the job's pick class within its tenant: "low",
	// "normal" (the default when absent), or "high". Fairness across
	// tenants wins over priority: a high-priority flood cannot jump the
	// scheduler's round-robin ring.
	Priority string `json:"priority,omitempty"`
}

// JobStatusDTO is one job's wire shape, returned by submit, get, and
// list.
type JobStatusDTO struct {
	ID string `json:"id"`
	Op string `json:"op"`
	// State is queued, running, done, failed, or canceled.
	State string `json:"state"`
	// Cached reports the job completed from the content-addressed store
	// without executing.
	Cached bool `json:"cached,omitempty"`
	// CostBytes is the admission-control footprint estimate.
	CostBytes int64 `json:"cost_bytes"`
	// ResultKey is the content address of a done job's result.
	ResultKey string `json:"result_key,omitempty"`
	// Error is a failed job's cause.
	Error string `json:"error,omitempty"`
	// Priority is the job's pick class; omitted for normal, so
	// priority-absent submissions keep the pre-priority wire format.
	Priority    string `json:"priority,omitempty"`
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// JobListResponse is the GET /v1/jobs body, newest submission first.
// NextCursor is present only when a ?limit= page has more results —
// pass it back as ?cursor= to resume; its omission keeps unpaginated
// responses byte-identical to the pre-pagination wire format.
type JobListResponse struct {
	Jobs       []JobStatusDTO `json:"jobs"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

// JobDeleteResponse is the DELETE /v1/jobs/{id} body: the job's state
// after the call — a live job moves toward canceled, a terminal job
// reports "deleted".
type JobDeleteResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// jobStatusDTO shapes one queue job for the wire.
func jobStatusDTO(j jobs.Job) JobStatusDTO {
	dto := JobStatusDTO{
		ID:        j.ID,
		Op:        j.Kind,
		State:     string(j.State),
		Cached:    j.Cached,
		CostBytes: j.Cost,
		Error:     j.Error,
		Priority:  string(j.Priority),
	}
	if j.State == jobs.Done {
		dto.ResultKey = j.Key
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	dto.SubmittedAt = stamp(j.SubmittedAt)
	dto.StartedAt = stamp(j.StartedAt)
	dto.FinishedAt = stamp(j.FinishedAt)
	return dto
}

// jobsQueue returns the queue or the error envelope explaining why there
// is none (daemon started without a store dir, or the open failed).
func (s *Server) jobsQueue() (*jobs.Queue, *apiError) {
	if s.queue != nil {
		return s.queue, nil
	}
	if s.jobsErr != nil {
		return nil, internalError(s.jobsErr)
	}
	return nil, notFound("jobs_disabled",
		"async jobs are not enabled on this server (start it with a store directory, e.g. balarchd -store-dir)")
}

// jobExecutor adapts the server cores to the queue's Exec signature. The
// returned bytes use the exact encoding writeJSON puts on the wire, so a
// stored result is byte-identical to the synchronous endpoint's
// response body.
func (s *Server) jobExecutor() jobs.Exec {
	return func(ctx context.Context, kind string, req json.RawMessage) ([]byte, error) {
		// The job id is a pure function of (kind, canonical request), so
		// the executor recomputes it to route engine progress onto the
		// job's SSE topic without widening the Exec signature.
		id, _ := jobs.IDFor(kind, req)
		ctx = s.jobProgressContext(ctx, id)
		o := findOp(opTable, kind)
		if o == nil {
			return nil, badRequest("unknown_op", "unknown job op %q", kind)
		}
		body, apiErr := o.call(s, s.sweepContext(ctx), req)
		if apiErr != nil {
			return nil, apiErr
		}
		return encodeJSONBody(body)
	}
}

// --- handlers ---

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	q.GC() // opportunistic TTL sweep; cheap when nothing is expired
	var req JobSubmitRequest
	if apiErr := decodeStrict(w, r, s.opts.MaxBodyBytes, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	opReq, cost, apiErr := s.admitOp(r.Context(), req.Op, req.Request)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	prio, perr := jobs.ParsePriority(req.Priority)
	if perr != nil {
		writeError(w, unprocessable("invalid_priority",
			"priority %q is not one of low, normal, high", req.Priority))
		return
	}
	var tenantName string
	if tn := tenantFrom(r.Context()); tn != nil {
		tenantName = tn.name
	}
	j, _, err := q.SubmitFor(tenantName, req.Op, mustMarshal(opReq), cost, prio)
	if err != nil {
		var over *jobs.ErrOverBudget
		if errors.As(err, &over) && over.Tenant != "" {
			s.metrics.TenantOverBudget(over.Tenant)
		}
		writeError(w, asJobsError(err))
		return
	}
	status := http.StatusAccepted
	if j.State == jobs.Done {
		// Already complete (deduplicated against the store or a prior
		// identical job): the result is fetchable right now.
		status = http.StatusOK
	}
	writeJSONStatus(w, status, jobStatusDTO(j))
}

// maxJobPageSize caps ?limit= so one page cannot be asked to materialize
// an unbounded DTO slice anyway (limit 0 — no pagination — still lists
// everything, the pre-pagination contract).
const maxJobPageSize = 1000

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	q.GC()
	query := r.URL.Query()
	stateFilter := query.Get("state")
	limit := 0
	if ls := query.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, badRequest("invalid_argument", "limit must be a non-negative integer, got %q", ls))
			return
		}
		limit = min(n, maxJobPageSize)
	}
	var after *jobs.Position
	if cs := query.Get("cursor"); cs != "" {
		pos, apiErr := decodeJobCursor(cs)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		after = &pos
	}
	var keep func(*jobs.Job) bool
	if stateFilter != "" {
		keep = func(j *jobs.Job) bool { return string(j.State) == stateFilter }
	}
	page, more := q.Page(after, keep, limit)
	resp := JobListResponse{Jobs: make([]JobStatusDTO, 0, len(page))}
	for _, j := range page {
		resp.Jobs = append(resp.Jobs, jobStatusDTO(j))
	}
	if more {
		// One more matching job exists beyond the page: hand back the
		// page's last position as the resume token.
		resp.NextCursor = encodeJobCursor(page[len(page)-1])
	}
	writeJSON(w, resp)
}

// The cursor is the position of the last job already delivered —
// (submission nanos, id), the key of the queue's list order (SubmittedAt
// descending, id ascending within a tie) — base64url-encoded as
// "nanos.id". Position, not offset: jobs finishing or being GC'd
// between pages can never skip or repeat a survivor.

func encodeJobCursor(j jobs.Job) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(strconv.FormatInt(j.SubmittedAt.UnixNano(), 10) + "." + j.ID))
}

func decodeJobCursor(s string) (jobs.Position, *apiError) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err == nil {
		if ts, rest, ok := strings.Cut(string(raw), "."); ok && rest != "" {
			if n, perr := strconv.ParseInt(ts, 10, 64); perr == nil {
				return jobs.Position{Nanos: n, ID: rest}, nil
			}
		}
	}
	return jobs.Position{}, badRequest("bad_cursor", "cursor is not a token this API issued")
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	j, err := q.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, asJobsError(err))
		return
	}
	writeJSON(w, jobStatusDTO(j))
}

// handleJobResult serves a done job's stored result verbatim — the bytes
// the synchronous endpoint would have written for the same request. A
// job still in flight is 409 (poll the status endpoint), a failed one
// carries its failure as a 422 envelope, a canceled one 409.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	id := r.PathValue("id")
	j, err := q.Get(id)
	if err != nil {
		writeError(w, asJobsError(err))
		return
	}
	switch j.State {
	case jobs.Done:
		data, ok, gerr := s.store.Get(j.Key)
		if gerr != nil {
			writeError(w, internalError(gerr))
			return
		}
		if !ok {
			writeError(w, notFound("result_gone",
				"job %s is done but its result %s is no longer in the store", id, j.Key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	case jobs.Failed:
		writeError(w, unprocessable("job_failed", "job %s failed: %s", id, j.Error))
	case jobs.Canceled:
		writeError(w, conflict("job_canceled", "job %s was canceled", id))
	default:
		writeError(w, conflict("not_done",
			"job %s is %s; poll GET /v1/jobs/%s until it is done", id, j.State, id))
	}
}

// handleJobDelete cancels a live job or forgets a terminal one.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	id := r.PathValue("id")
	j, err := q.Get(id)
	if err != nil {
		writeError(w, asJobsError(err))
		return
	}
	if !j.State.Terminal() {
		j, err = q.Cancel(id)
		if err != nil {
			writeError(w, asJobsError(err))
			return
		}
		writeJSON(w, JobDeleteResponse{ID: id, State: string(j.State)})
		return
	}
	if err := q.Delete(id); err != nil {
		writeError(w, asJobsError(err))
		return
	}
	writeJSON(w, JobDeleteResponse{ID: id, State: "deleted"})
}

// asJobsError maps queue errors to the envelope: unknown ids are 404,
// over-budget is 429 with Retry-After, a closed (draining) queue is 503,
// anything else 500.
func asJobsError(err error) *apiError {
	var over *jobs.ErrOverBudget
	switch {
	case errors.As(err, &over):
		scope := "the"
		if over.Tenant != "" {
			// The tenant partition refused, not the global pool: say so,
			// so a throttled tenant doesn't conclude the server is full.
			scope = fmt.Sprintf("tenant %q's", over.Tenant)
		}
		ae := &apiError{
			Status: http.StatusTooManyRequests,
			Body: ErrorBody{"over_budget", fmt.Sprintf(
				"job admission denied: footprint %d B would exceed %s %d B budget (%d B in use); retry after %v",
				over.Cost, scope, over.Budget, over.InUse, over.RetryAfter)},
		}
		ae.RetryAfterSeconds = int(math.Ceil(over.RetryAfter.Seconds()))
		if ae.RetryAfterSeconds < 1 {
			ae.RetryAfterSeconds = 1
		}
		return ae
	case errors.Is(err, jobs.ErrNotFound):
		return notFound("unknown_job", "%v", err)
	case errors.Is(err, jobs.ErrNotTerminal):
		// A live job deleted concurrently with an identical resubmit
		// reviving it: a state conflict, not a server fault.
		return conflict("not_terminal", "%v", err)
	case errors.Is(err, jobs.ErrClosed):
		return &apiError{Status: http.StatusServiceUnavailable,
			Body:              ErrorBody{"draining", "the job queue is shutting down"},
			RetryAfterSeconds: 1}
	default:
		return internalError(err)
	}
}
