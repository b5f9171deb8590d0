package server

// Server-sent events: the wire exposure of the engine's progress
// callbacks (PR 1) that polling clients never saw. Two streams share the
// machinery: GET /v1/jobs/{id}/events follows one async job (state
// transitions from the queue's Notify hook, per-point progress from the
// executor's engine.WithProgress context), and POST
// /v1/experiments/{id}?stream=1 follows a synchronous experiment run.
// The bus bounds every subscriber: a consumer that cannot keep up is
// dropped with a terminal "dropped" event rather than backpressuring the
// queue workers, and Server.Close closes every stream cleanly so a
// draining daemon never strands a connection.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"balarch/internal/engine"
	"balarch/internal/jobs"
)

// SSE stream tuning. The buffer absorbs bursts (a cached sweep's points
// complete in microseconds); the heartbeat keeps idle connections alive
// through proxies and lets the server notice dead clients.
const (
	defaultEventBuffer       = 64
	defaultHeartbeatInterval = 15 * time.Second
)

// Subscriber-drop reasons: why a stream ended early. The empty reason is
// a normal completion (the topic's terminal event was delivered).
const (
	dropSlowConsumer = "slow_consumer"
	dropShuttingDown = "shutting_down"
)

// busEvent is one SSE frame: an event name and its JSON data line.
type busEvent struct {
	name string
	data []byte
}

// subscriber is one stream's bounded mailbox. After ch closes, reason
// says why (set under the bus lock before the close, so reading it after
// the close is race-free).
type subscriber struct {
	ch     chan busEvent
	reason string
}

// eventBus fans events out to per-topic subscribers. Publishing never
// blocks: a full subscriber is cut (reason slow_consumer) instead of
// stalling the publisher, which may be a queue worker holding the queue
// lock.
type eventBus struct {
	mu     sync.Mutex
	subs   map[string]map[*subscriber]struct{}
	buf    int
	closed bool
}

func newEventBus(buf int) *eventBus {
	if buf <= 0 {
		buf = defaultEventBuffer
	}
	return &eventBus{subs: make(map[string]map[*subscriber]struct{}), buf: buf}
}

// subscribe registers a new mailbox on topic; errClosed when the bus is
// draining.
func (b *eventBus) subscribe(topic string) (*subscriber, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false
	}
	sub := &subscriber{ch: make(chan busEvent, b.buf)}
	m := b.subs[topic]
	if m == nil {
		m = make(map[*subscriber]struct{})
		b.subs[topic] = m
	}
	m[sub] = struct{}{}
	return sub, true
}

// unsubscribe removes sub from topic (idempotent; a dropped sub is
// already gone).
func (b *eventBus) unsubscribe(topic string, sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := b.subs[topic]; m != nil {
		if _, ok := m[sub]; ok {
			delete(m, sub)
			if len(m) == 0 {
				delete(b.subs, topic)
			}
			close(sub.ch)
		}
	}
}

// publish delivers ev to every subscriber of topic; terminal also ends
// the topic, closing the survivors' channels with the empty (normal)
// reason after they receive ev.
func (b *eventBus) publish(topic string, ev busEvent, terminal bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.subs[topic]
	for sub := range m {
		select {
		case sub.ch <- ev:
		default:
			// Full mailbox: this consumer is too slow for the stream's
			// bound. Cut it here — the handler sees the close, reads the
			// reason, and writes the terminal "dropped" frame.
			sub.reason = dropSlowConsumer
			delete(m, sub)
			close(sub.ch)
		}
	}
	if terminal {
		for sub := range m {
			delete(m, sub)
			close(sub.ch)
		}
	}
	if len(m) == 0 {
		delete(b.subs, topic)
	}
}

// close ends every stream (reason shutting_down) and refuses new
// subscriptions: the drain path.
func (b *eventBus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for topic, m := range b.subs {
		for sub := range m {
			sub.reason = dropShuttingDown
			close(sub.ch)
		}
		delete(b.subs, topic)
	}
}

// subscriberCount reports topic's live subscriptions (tests).
func (b *eventBus) subscriberCount(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs[topic])
}

// --- wire shapes ---

// ProgressDTO is the data payload of a "progress" event on a job or an
// experiment stream: one engine pool completion inside the running job or
// experiment, which the event's ID names.
type ProgressDTO struct {
	ID    string `json:"id"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// StreamDropDTO is the data payload of the terminal "dropped" event: why
// the server ended the stream early ("slow_consumer" or
// "shutting_down"). Reconnect (or fall back to polling) on receipt.
type StreamDropDTO struct {
	Reason string `json:"reason"`
}

// Event names on the SSE streams. A job stream is state* progress* done;
// an experiment stream is progress* (done|error); either may end with
// dropped instead.
const (
	eventState    = "state"
	eventProgress = "progress"
	eventDone     = "done"
	eventError    = "error"
	eventDropped  = "dropped"
)

// jobTopic names the bus topic for one job id.
func jobTopic(id string) string { return "job:" + id }

// publishJobTransition is the queue's Notify hook: every state change
// becomes a "state" event, terminal states a "done" event that also ends
// the topic. Runs under the queue lock — it only touches the bus mutex.
func (s *Server) publishJobTransition(j jobs.Job) {
	dto := jobStatusDTO(j)
	name := eventState
	terminal := j.State.Terminal()
	if terminal {
		name = eventDone
	}
	s.events.publish(jobTopic(j.ID), busEvent{name: name, data: mustMarshal(dto)}, terminal)
}

// jobProgressContext hooks the executor's context so the engine pools
// under a running job report per-point progress onto the job's topic.
func (s *Server) jobProgressContext(ctx context.Context, id string) context.Context {
	return engine.WithProgress(ctx, func(ev engine.Event) {
		s.events.publish(jobTopic(id), busEvent{name: eventProgress, data: mustMarshal(ProgressDTO{
			ID: id, Done: ev.Done, Total: ev.Total,
		})}, false)
	})
}

// --- SSE plumbing ---

// sseWriter serializes frames onto one response: the handler goroutine
// and the heartbeat share it. Write errors latch — once the client is
// gone every later write is a cheap no-op.
type sseWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	err     error
}

// startSSE switches the response to an event stream. It needs the
// ResponseWriter to support flushing (the daemon's does; statusRecorder
// passes it through) and disables any server write deadline — a stream
// lives as long as the work, not as long as one response write.
func startSSE(w http.ResponseWriter, r *http.Request) (*sseWriter, *apiError) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return nil, internalError(fmt.Errorf("response writer %T cannot stream", w))
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{}) // best-effort; recorders don't support it
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	return &sseWriter{w: w, flusher: flusher}, nil
}

// event writes one "event:/data:" frame and flushes it.
func (sw *sseWriter) event(name string, data []byte) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	// The data lines are single-line JSON (json.Marshal output), so one
	// data: field per frame suffices.
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		sw.err = err
		return
	}
	sw.flusher.Flush()
}

// comment writes a ": heartbeat" keep-alive frame.
func (sw *sseWriter) comment() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	if _, err := fmt.Fprint(sw.w, ": heartbeat\n\n"); err != nil {
		sw.err = err
		return
	}
	sw.flusher.Flush()
}

// heartbeat returns the server's keep-alive interval.
func (s *Server) heartbeat() time.Duration {
	if s.sseHeartbeat > 0 {
		return s.sseHeartbeat
	}
	return defaultHeartbeatInterval
}

// --- handlers ---

// handleJobEvents is GET /v1/jobs/{id}/events: the job's lifecycle as an
// event stream — "state" on submit/queued/running, "progress" per engine
// pool completion while it runs, "done" with the full terminal status,
// then the stream closes. Subscribing to an already-terminal job yields
// its "done" event immediately. The subscription is bounded: a consumer
// that falls behind gets a terminal "dropped" frame (reason
// slow_consumer), and daemon drain ends every stream with reason
// shutting_down.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	q, apiErr := s.jobsQueue()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	id := r.PathValue("id")
	// Subscribe before the state read: a transition between the two
	// lands in the mailbox instead of being lost.
	sub, ok := s.events.subscribe(jobTopic(id))
	if !ok {
		writeError(w, &apiError{Status: http.StatusServiceUnavailable,
			Body:              ErrorBody{"draining", "the server is shutting down"},
			RetryAfterSeconds: 1})
		return
	}
	j, err := q.Get(id)
	if err != nil {
		s.events.unsubscribe(jobTopic(id), sub)
		writeError(w, asJobsError(err))
		return
	}
	sw, apiErr := startSSE(w, r)
	if apiErr != nil {
		s.events.unsubscribe(jobTopic(id), sub)
		writeError(w, apiErr)
		return
	}
	if j.State.Terminal() {
		s.events.unsubscribe(jobTopic(id), sub)
		sw.event(eventDone, mustMarshal(jobStatusDTO(j)))
		return
	}
	sw.event(eventState, mustMarshal(jobStatusDTO(j)))

	ticker := time.NewTicker(s.heartbeat())
	defer ticker.Stop()
	defer s.events.unsubscribe(jobTopic(id), sub)
	for {
		select {
		case <-r.Context().Done():
			// Client went away: free the subscription and stop.
			return
		case ev, open := <-sub.ch:
			if !open {
				if sub.reason != "" {
					sw.event(eventDropped, mustMarshal(StreamDropDTO{Reason: sub.reason}))
				}
				return
			}
			sw.event(ev.name, ev.data)
		case <-ticker.C:
			sw.comment()
		}
	}
}

// streamExperiment is POST /v1/experiments/{id}?stream=1: the run's
// engine progress as "progress" events while it executes in this
// handler, then one terminal "done" (the ExperimentRunResponse) or
// "error" (the error envelope's body). Cancellation still works — the
// run hangs off r.Context(), so a dropped stream aborts the sweeps.
func (s *Server) streamExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, apiErr := startSSE(w, r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// Heartbeats cover the gaps between sweep completions (a cold
	// measured sweep can run seconds per point).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(s.heartbeat())
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				sw.comment()
			}
		}
	}()

	ctx := engine.WithProgress(r.Context(), func(ev engine.Event) {
		sw.event(eventProgress, mustMarshal(ProgressDTO{
			ID: id, Done: ev.Done, Total: ev.Total,
		}))
	})
	res, apiErr := s.runExperiment(ctx, id)
	if apiErr != nil {
		sw.event(eventError, mustMarshal(errorEnvelope{Error: apiErr.Body}))
		return
	}
	data, err := res.JSON()
	if err != nil {
		sw.event(eventError, mustMarshal(errorEnvelope{Error: internalError(err).Body}))
		return
	}
	sw.event(eventDone, mustMarshal(ExperimentRunResponse{Pass: res.Pass(), Result: data}))
}
