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
// footprint (see estimateJobCost), and a submit that would push the live
// sum past the budget is 429 with Retry-After.

import (
	"bytes"
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

	"balarch/internal/experiments"
	"balarch/internal/jobs"
)

// jobOps lists the operations POST /v1/jobs accepts, for error messages.
const jobOpsList = "analyze, rebalance, roofline, sweep, experiment, batch"

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

// prepareJob validates a job envelope and returns the canonical request
// bytes (the decoded DTO re-marshaled, so equal requests have equal
// bytes whatever their whitespace or field order) plus the admission
// footprint estimate. Validation happens here, synchronously: a request
// the synchronous endpoint would reject with 4xx is rejected at submit,
// not accepted and failed later.
func (s *Server) prepareJob(op string, raw json.RawMessage) (canonical []byte, cost int64, apiErr *apiError) {
	if len(raw) == 0 {
		return nil, 0, badRequest("bad_json", "job has no request body")
	}
	switch op {
	case "analyze":
		req, apiErr := decodeJobDTO[AnalyzeRequest](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if _, apiErr := resolveComputation(req.Computation); apiErr != nil {
			return nil, 0, apiErr
		}
		return mustCanonical(req), jobBaseCost, nil
	case "rebalance":
		req, apiErr := decodeJobDTO[RebalanceRequest](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if _, apiErr := resolveComputation(req.Computation); apiErr != nil {
			return nil, 0, apiErr
		}
		return mustCanonical(req), jobBaseCost, nil
	case "roofline":
		req, apiErr := decodeJobDTO[RooflineRequest](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if len(req.Computations) == 0 {
			return nil, 0, unprocessable("invalid_argument", "computations must list at least one entry")
		}
		for _, dto := range req.Computations {
			if _, apiErr := resolveComputation(dto); apiErr != nil {
				return nil, 0, apiErr
			}
		}
		return mustCanonical(req), jobBaseCost, nil
	case "sweep":
		req, apiErr := decodeJobDTO[SweepRequest](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if _, apiErr := validateSweep(req); apiErr != nil {
			return nil, 0, apiErr
		}
		return mustCanonical(req), estimateSweepCost(req), nil
	case "experiment":
		req, apiErr := decodeJobDTO[ExperimentRef](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if _, err := experiments.Get(req.ID); err != nil {
			return nil, 0, notFound("unknown_experiment", "%v", err)
		}
		return mustCanonical(req), experimentJobCost, nil
	case "batch":
		req, apiErr := decodeJobDTO[BatchRequest](raw)
		if apiErr != nil {
			return nil, 0, apiErr
		}
		if len(req.Requests) == 0 {
			return nil, 0, unprocessable("invalid_argument", "requests must list at least one item")
		}
		if len(req.Requests) > s.opts.MaxBatch {
			return nil, 0, unprocessable("batch_too_large",
				"batch of %d exceeds the limit of %d", len(req.Requests), s.opts.MaxBatch)
		}
		cost := int64(0)
		for i, item := range req.Requests {
			if item.Op == "batch" {
				return nil, 0, unprocessable("invalid_argument",
					"batch item %d: batches do not nest", i)
			}
			_, c, apiErr := s.prepareJob(item.Op, item.Request)
			if apiErr != nil {
				// A batch *job* is admitted whole or not at all —
				// unlike the synchronous endpoint's per-item envelopes,
				// there is no caller waiting to read partial failures.
				return nil, 0, unprocessable("invalid_argument",
					"batch item %d (%s): %s", i, item.Op, apiErr.Body.Message)
			}
			cost += c
		}
		return mustCanonical(req), cost, nil
	case "":
		return nil, 0, badRequest("invalid_argument", "job is missing op (one of %s)", jobOpsList)
	default:
		return nil, 0, badRequest("unknown_op", "unknown job op %q (one of %s)", op, jobOpsList)
	}
}

// decodeJobDTO strict-decodes a job request body into its DTO.
func decodeJobDTO[T any](raw json.RawMessage) (*T, *apiError) {
	v := new(T)
	if apiErr := strictDecodeJSON(bytes.NewReader(raw), v); apiErr != nil {
		return nil, apiErr
	}
	return v, nil
}

// mustCanonical re-marshals a decoded DTO; the DTOs are plain data, so
// failure is a programming error (and would have failed the decode).
func mustCanonical(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// Admission-control footprint model (documented in DESIGN.md §6): every
// job holds at least the base (DTO, response buffer, bookkeeping); the
// kernels that materialize data add their working set — the sort kernel
// sorts m² eight-byte keys per point, the grid kernel relaxes size^dim
// eight-byte cells, the counting kernels touch O(n) words; an experiment
// is a bundle of sweeps, budgeted flat.
const (
	jobBaseCost       = 64 << 10
	experimentJobCost = 16 << 20
	wordBytes         = 8
)

// estimateSweepCost applies the model to one (validated) sweep request.
func estimateSweepCost(req *SweepRequest) int64 {
	cost := int64(jobBaseCost)
	switch req.Kernel {
	case "sort":
		for _, m := range req.Params {
			cost += int64(m) * int64(m) * wordBytes
		}
	case "grid":
		cells := int64(1)
		for d := 0; d < req.Dim; d++ {
			cells *= int64(req.Size)
		}
		cost += cells * wordBytes
	default:
		cost += int64(req.N) * wordBytes
	}
	return cost
}

// runJobOp executes one job op through the same cores the synchronous
// endpoints and /v1/batch use, so an async result can never drift from
// the synchronous answer.
func (s *Server) runJobOp(ctx context.Context, op string, raw json.RawMessage) (any, *apiError) {
	switch op {
	case "analyze":
		return decodeAndRun(ctx, raw, s.analyze)
	case "rebalance":
		return decodeAndRun(ctx, raw, s.rebalance)
	case "roofline":
		return decodeAndRun(ctx, raw, s.roofline)
	case "sweep":
		return decodeAndRun(ctx, raw, s.runSweep)
	case "experiment":
		return decodeAndRun(ctx, raw, s.experimentOp)
	case "batch":
		return decodeAndRun(ctx, raw, s.batch)
	default:
		return nil, badRequest("unknown_op", "unknown job op %q", op)
	}
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
		body, apiErr := s.runJobOp(s.sweepContext(ctx), kind, req)
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
	canonical, cost, apiErr := s.prepareJob(req.Op, req.Request)
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
	j, _, err := q.SubmitFor(tenantName, req.Op, canonical, cost, prio)
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
