package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"balarch/internal/engine"
)

// sseEvent is one parsed frame from a recorded SSE body.
type sseEvent struct {
	name string
	data string
}

// parseSSE splits a recorded stream into its frames (comments skipped).
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, frame := range strings.Split(body, "\n\n") {
		if frame == "" || strings.HasPrefix(frame, ":") {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case strings.HasPrefix(line, ":"):
				// heartbeat sharing a frame boundary
			default:
				t.Fatalf("unparseable SSE line %q in frame %q", line, frame)
			}
		}
		if ev.name != "" {
			out = append(out, ev)
		}
	}
	return out
}

func TestEventBusSlowConsumerCut(t *testing.T) {
	b := newEventBus(2)
	sub, ok := b.subscribe("t")
	if !ok {
		t.Fatal("subscribe refused on an open bus")
	}
	// Fill the mailbox, then one more: the third publish must cut the
	// subscriber rather than block (the publisher may hold the queue lock).
	for i := 0; i < 3; i++ {
		b.publish("t", busEvent{name: "e", data: []byte("{}")}, false)
	}
	if n := b.subscriberCount("t"); n != 0 {
		t.Fatalf("slow subscriber still registered (%d)", n)
	}
	// Drain: two delivered events, then the close with the drop reason.
	for i := 0; i < 2; i++ {
		if _, open := <-sub.ch; !open {
			t.Fatalf("event %d: channel closed early", i)
		}
	}
	if _, open := <-sub.ch; open {
		t.Fatal("cut subscriber's channel still open")
	}
	if sub.reason != dropSlowConsumer {
		t.Fatalf("reason = %q, want %q", sub.reason, dropSlowConsumer)
	}
}

func TestEventBusTerminalAndClose(t *testing.T) {
	b := newEventBus(4)
	sub, _ := b.subscribe("t")
	b.publish("t", busEvent{name: "done", data: []byte("{}")}, true)
	if ev, open := <-sub.ch; !open || ev.name != "done" {
		t.Fatalf("terminal event not delivered: %v %v", ev, open)
	}
	if _, open := <-sub.ch; open {
		t.Fatal("channel open after terminal publish")
	}
	if sub.reason != "" {
		t.Fatalf("normal completion has reason %q", sub.reason)
	}
	if n := b.subscriberCount("t"); n != 0 {
		t.Fatalf("topic not cleaned up (%d subs)", n)
	}

	sub2, _ := b.subscribe("u")
	b.close()
	if _, open := <-sub2.ch; open {
		t.Fatal("close left a channel open")
	}
	if sub2.reason != dropShuttingDown {
		t.Fatalf("reason = %q, want %q", sub2.reason, dropShuttingDown)
	}
	if _, ok := b.subscribe("v"); ok {
		t.Fatal("closed bus accepted a subscription")
	}
}

func TestJobProgressContextPublishes(t *testing.T) {
	srv := newJobsServer(t, Options{})
	sub, _ := srv.events.subscribe(jobTopic("j1"))
	ctx := srv.jobProgressContext(context.Background(), "j1")
	engine.ProgressFrom(ctx)(engine.Event{Done: 3, Total: 8})
	ev := <-sub.ch
	if ev.name != eventProgress {
		t.Fatalf("event = %q, want progress", ev.name)
	}
	if got, want := string(ev.data), `{"id":"j1","done":3,"total":8}`; got != want {
		t.Fatalf("progress payload = %s, want %s", got, want)
	}
}

func TestJobEventsStreamToDone(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	st, _ := submitJob(t, h, `{"op": "sweep", "request": {"kernel": "matmul", "n": 48, "params": [2, 4, 8]}}`)

	w := do(h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "")
	if w.Code != 200 {
		t.Fatalf("stream status %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := parseSSE(t, w.Body.String())
	if len(evs) == 0 {
		t.Fatal("stream carried no events")
	}
	last := evs[len(evs)-1]
	if last.name != eventDone {
		t.Fatalf("terminal event = %q, want done\nstream: %s", last.name, w.Body.String())
	}
	var dto JobStatusDTO
	if err := json.Unmarshal([]byte(last.data), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.ID != st.ID || dto.State != "done" {
		t.Fatalf("done payload = %+v", dto)
	}
	for _, ev := range evs[:len(evs)-1] {
		if ev.name != eventState && ev.name != eventProgress {
			t.Fatalf("unexpected mid-stream event %q", ev.name)
		}
	}
	// The stream ended normally, freeing its subscription.
	if n := srv.events.subscriberCount(jobTopic(st.ID)); n != 0 {
		t.Fatalf("%d subscriptions leaked", n)
	}
}

func TestJobEventsTerminalFastPath(t *testing.T) {
	srv := newJobsServer(t, Options{})
	h := srv.Handler()
	st, _ := submitJob(t, h, `{"op": "analyze", "request": {"pe": {"c": 2e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}}`)
	waitJobDone(t, h, st.ID)

	w := do(h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "")
	evs := parseSSE(t, w.Body.String())
	if len(evs) != 1 || evs[0].name != eventDone {
		t.Fatalf("terminal job stream = %v, want exactly one done event", evs)
	}
}

func TestJobEventsErrors(t *testing.T) {
	srv := newJobsServer(t, Options{})
	w := do(srv.Handler(), http.MethodGet, "/v1/jobs/jdeadbeefdeadbeef/events", "")
	if w.Code != 404 || !strings.Contains(w.Body.String(), "unknown_job") {
		t.Fatalf("unknown job: %d\n%s", w.Code, w.Body.String())
	}
	// No subscription may outlive the refusal.
	if n := srv.events.subscriberCount(jobTopic("jdeadbeefdeadbeef")); n != 0 {
		t.Fatalf("%d subscriptions leaked by a 404", n)
	}

	_, plain := newTestHandler(Options{})
	w = do(plain, http.MethodGet, "/v1/jobs/x/events", "")
	if w.Code != 404 || !strings.Contains(w.Body.String(), "jobs_disabled") {
		t.Fatalf("jobs disabled: %d\n%s", w.Code, w.Body.String())
	}
}

// safeRecorder is a recorder the test may read while the handler still
// writes (a live stream): every access goes through one mutex.
type safeRecorder struct {
	mu  sync.Mutex
	rec *httptest.ResponseRecorder
}

func (s *safeRecorder) Header() http.Header {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Header()
}

func (s *safeRecorder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Write(p)
}

func (s *safeRecorder) WriteHeader(code int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.WriteHeader(code)
}

func (s *safeRecorder) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.Flush()
}

func (s *safeRecorder) body() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Body.String()
}

// streamInBackground issues an events request whose context the caller
// controls, returning the recorder and a channel closed when the handler
// returns.
func streamInBackground(ctx context.Context, h http.Handler, path string) (*safeRecorder, chan struct{}) {
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	w := &safeRecorder{rec: httptest.NewRecorder()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
	}()
	return w, done
}

// waitSubscribers polls until topic has n subscribers or the deadline
// passes.
func waitSubscribers(t *testing.T, b *eventBus, topic string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.subscriberCount(topic) != n {
		if time.Now().After(deadline) {
			t.Fatalf("topic %s never reached %d subscribers (at %d)", topic, n, b.subscriberCount(topic))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobEventsClientDisconnectFreesSubscription(t *testing.T) {
	// Paused workers: the job stays queued, so the stream only ends when
	// the client goes away.
	srv := newJobsServer(t, Options{JobWorkers: -1})
	h := srv.Handler()
	st, _ := submitJob(t, h, `{"op": "sweep", "request": {"kernel": "matmul", "n": 32, "params": [2]}}`)

	ctx, cancel := context.WithCancel(context.Background())
	_, done := streamInBackground(ctx, h, "/v1/jobs/"+st.ID+"/events")
	waitSubscribers(t, srv.events, jobTopic(st.ID), 1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
	if n := srv.events.subscriberCount(jobTopic(st.ID)); n != 0 {
		t.Fatalf("%d subscriptions survive the disconnect", n)
	}
}

func TestJobEventsDrainEndsStreams(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1})
	h := srv.Handler()
	st, _ := submitJob(t, h, `{"op": "sweep", "request": {"kernel": "matmul", "n": 32, "params": [2]}}`)

	w, done := streamInBackground(context.Background(), h, "/v1/jobs/"+st.ID+"/events")
	waitSubscribers(t, srv.events, jobTopic(st.ID), 1)
	srv.events.close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return on drain")
	}
	evs := parseSSE(t, w.body())
	last := evs[len(evs)-1]
	if last.name != eventDropped || !strings.Contains(last.data, dropShuttingDown) {
		t.Fatalf("drain stream ended with %v, want dropped/shutting_down", last)
	}
	// A draining bus refuses new streams with a retryable 503.
	w2 := do(h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", "")
	if w2.Code != 503 || !strings.Contains(w2.Body.String(), "draining") {
		t.Fatalf("stream on a draining server: %d\n%s", w2.Code, w2.Body.String())
	}
	if w2.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
}

func TestJobEventsHeartbeat(t *testing.T) {
	srv := newJobsServer(t, Options{JobWorkers: -1})
	srv.sseHeartbeat = 5 * time.Millisecond
	h := srv.Handler()
	st, _ := submitJob(t, h, `{"op": "sweep", "request": {"kernel": "matmul", "n": 32, "params": [2]}}`)

	ctx, cancel := context.WithCancel(context.Background())
	w, done := streamInBackground(ctx, h, "/v1/jobs/"+st.ID+"/events")
	waitSubscribers(t, srv.events, jobTopic(st.ID), 1)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.body(), ": heartbeat") {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat within 5s at a 5ms interval")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

func TestExperimentStream(t *testing.T) {
	_, h := newTestHandler(Options{})
	w := do(h, http.MethodPost, "/v1/experiments/E1?stream=1", "")
	if w.Code != 200 {
		t.Fatalf("stream status %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := parseSSE(t, w.Body.String())
	if len(evs) == 0 {
		t.Fatal("experiment stream carried no events")
	}
	last := evs[len(evs)-1]
	if last.name != eventDone {
		t.Fatalf("terminal event = %q, want done", last.name)
	}
	var resp ExperimentRunResponse
	if err := json.Unmarshal([]byte(last.data), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Pass || len(resp.Result) == 0 {
		t.Fatalf("done payload = pass %v with %d result bytes", resp.Pass, len(resp.Result))
	}
	progress := 0
	for _, ev := range evs[:len(evs)-1] {
		if ev.name == eventProgress {
			progress++
		}
	}
	if progress == 0 {
		t.Fatal("experiment stream pushed no progress events")
	}

	// Unknown id: the stream is already open, so the failure is an
	// in-band "error" event, not an HTTP status.
	w = do(h, http.MethodPost, "/v1/experiments/E0?stream=1", "")
	if w.Code != 200 {
		t.Fatalf("unknown experiment stream status %d", w.Code)
	}
	evs = parseSSE(t, w.Body.String())
	last = evs[len(evs)-1]
	if last.name != eventError || !strings.Contains(last.data, "unknown_experiment") {
		t.Fatalf("unknown experiment ended with %v, want error/unknown_experiment", last)
	}

	// Without ?stream=1 the route still answers plain JSON.
	wPlain, decoded := doJSON(t, h, http.MethodPost, "/v1/experiments/E1", "")
	if wPlain.Code != 200 || decoded["pass"] != true {
		t.Fatalf("plain experiment run: %d %v", wPlain.Code, decoded)
	}
}
