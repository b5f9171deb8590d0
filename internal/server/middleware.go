package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"balarch/internal/obs"
)

// Middleware is a composable http.Handler wrapper. The server's stack is
// built with Chain; embedders mounting the API elsewhere can reuse the
// pieces individually.
type Middleware func(http.Handler) http.Handler

// Chain wraps h in the middlewares, outermost first: Chain(h, a, b) serves
// a(b(h)).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// statusRecorder captures the response status and size for logging and
// metrics. Instances are pooled by Observe — one lives exactly as long as
// the request it wraps, and its ResponseWriter is nilled before it goes
// back so a stale handler reference cannot write into the next request.
// beforeHeader, when set, runs once just before the status line is
// committed (first WriteHeader, Write, or Flush) — the last moment a
// response header (Server-Timing) can still be added.
type statusRecorder struct {
	http.ResponseWriter
	status       int
	bytes        int64
	beforeHeader func()
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// committing marks the status line as decided: records code (or 200) on
// first commit and fires the beforeHeader hook exactly once.
func (r *statusRecorder) committing(code int) {
	if r.status == 0 {
		r.status = code
		if r.beforeHeader != nil {
			r.beforeHeader()
			r.beforeHeader = nil
		}
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	r.committing(code)
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.committing(http.StatusOK)
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE streams flush through
// the logging recorder (embedding promotes only the interface's own
// methods, so without this the recorder would hide the Flusher).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		r.committing(http.StatusOK)
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// the SSE handlers use to clear the server's write deadline on streams.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// RequestIDHeader is the correlation header: a client that sets it on a
// request finds the same value echoed on the response, so a load generator
// (or any caller with its own tracing) can match responses to the requests
// it issued and to the server's log lines. The spelling is the textproto
// canonical form ("Id", not "ID") — the form net/http has always put on
// the wire — so Header.Get/Set skip the per-call canonicalization copy;
// lookups remain case-insensitive for clients.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen caps the echoed header so an abusive client cannot make
// the server mirror arbitrarily large payloads into responses and logs.
const maxRequestIDLen = 128

// requestIDSeq numbers server-assigned request ids.
var requestIDSeq atomic.Int64

// RequestID echoes the client's X-Request-Id header onto the response, or
// assigns a sequential "balarch-<n>" id when the client sent none. It sets
// the response header before the inner handler runs, so Observe (inside it
// in the server's stack) can include the id in its line.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(RequestIDHeader)
			if len(id) > maxRequestIDLen {
				id = id[:maxRequestIDLen]
			}
			if id == "" {
				// Build the id in one allocation (the string copy); the
				// append chain itself stays on the stack.
				var buf [24]byte
				b := append(buf[:0], "balarch-"...)
				b = strconv.AppendInt(b, requestIDSeq.Add(1), 10)
				id = string(b)
			}
			w.Header().Set(RequestIDHeader, id)
			next.ServeHTTP(w, r)
		})
	}
}

// Recover converts a handler panic into a 500 envelope instead of killing
// the connection (and, under http.Server, the goroutine's request). The
// panic value and stack are logged; the client sees a stable error shape.
func Recover(log *slog.Logger, m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if m != nil {
						m.Panic()
					}
					if log != nil {
						log.Error("panic in handler",
							"method", r.Method, "path", r.URL.Path, "panic", v)
					}
					writeError(w, &apiError{Status: http.StatusInternalServerError,
						Body: ErrorBody{"panic", "internal error"}})
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Observe is the per-request accounting middleware: it feeds the
// metrics' route counters, latency histogram, and in-flight gauge,
// makes the tracing decision (when tracer is non-nil), and emits one
// structured log line per request — at Debug for routine traffic, at
// Warn (unconditionally) for 5xx responses, so a production logger at
// the default Info level pays nothing per healthy request. The
// accounting is deferred so even a panic that escapes an inner Recover
// cannot leak the in-flight gauge.
//
// Tracing: an inbound sampled traceparent, a trace=1 query, or the
// tracer's head sampling captures the request; a captured (or
// traceparent-carrying) request gets a Traceparent response header, and
// the trace record rides the request context (obs.TraceFrom) for
// handlers to add stage spans. trace=1 additionally returns the spans
// recorded before the status line as a Server-Timing header.
func Observe(log *slog.Logger, m *Metrics, tracer *obs.Tracer) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			if m != nil {
				m.IncInFlight()
			}
			var tr *obs.Trace
			if tracer != nil {
				explicit := r.URL.RawQuery != "" && queryWantsTrace(r.URL.RawQuery)
				var echo string
				tr, echo = tracer.Start(r.Header.Get(obs.TraceparentHeader),
					w.Header().Get(RequestIDHeader), explicit)
				if echo != "" {
					w.Header().Set(obs.TraceparentHeader, echo)
				}
				if tr != nil {
					// Reassign r so the deferred routeLabel reads the same
					// request the mux stamps its pattern on.
					r = r.WithContext(obs.WithTrace(r.Context(), tr))
				}
			}
			rec := recorderPool.Get().(*statusRecorder)
			rec.ResponseWriter = w
			rec.status = 0
			rec.bytes = 0
			rec.beforeHeader = nil
			if tr.WantTiming() {
				rec.beforeHeader = func() {
					var buf [256]byte
					w.Header().Set("Server-Timing", string(tr.AppendServerTiming(buf[:0])))
				}
			}
			defer func() {
				if rec.status == 0 {
					rec.status = http.StatusOK
				}
				elapsed := time.Since(start)
				if m != nil {
					m.DecInFlight()
					m.Observe(routeLabel(r), rec.status, elapsed)
				}
				if tracer != nil {
					tracer.Finish(tr, routeLabel(r), rec.status, elapsed)
				}
				if log != nil && (rec.status >= 500 || log.Enabled(context.Background(), slog.LevelDebug)) {
					level := slog.LevelDebug
					if rec.status >= 500 {
						level = slog.LevelWarn
					}
					log.Log(context.Background(), level, "request",
						"method", r.Method, "path", r.URL.Path,
						"status", rec.status, "bytes", rec.bytes,
						"duration", elapsed,
						"request_id", rec.Header().Get(RequestIDHeader))
				}
				rec.ResponseWriter = nil
				rec.beforeHeader = nil
				recorderPool.Put(rec)
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// queryWantsTrace scans a raw query for the trace=1 opt-in without
// parsing (or allocating) the full query.
func queryWantsTrace(raw string) bool {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "trace=1" {
			return true
		}
	}
	return false
}

// routeLabel returns a request's metrics key: the matched mux pattern,
// method-qualified ("POST /v1/analyze") — a set fixed at registration
// time, so /v1/experiments/E2 and /v1/experiments/X4 share one series.
// Everything else collapses onto fixed tokens: requests that never
// reached the mux (rejected by the limiter, or killed by the deadline
// while queued) are "(unmatched)", and requests the catch-all absorbed
// (unknown path or wrong method) are "(unknown_route)". Nothing
// client-chosen — neither path nor method token — may become a key, or
// an abusive client could grow the metrics maps (and every /metrics
// response) without bound.
func routeLabel(r *http.Request) string {
	switch p := r.Pattern; p {
	case "":
		return "(unmatched)"
	case "/":
		return "(unknown_route)"
	default:
		return p
	}
}

// LimitConcurrency bounds the number of requests inside the handler at
// once: request n+1 waits for a slot rather than stampeding the kernel
// sweeps, and a request whose context dies (a client disconnect) while
// queued gets 503 instead of a slot. Paths listed in exempt bypass the limit —
// liveness probes must answer even when the server is saturated. n ≤ 0
// disables the limit.
func LimitConcurrency(n int, exempt ...string) Middleware {
	if n <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	slots := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for _, p := range exempt {
				if r.URL.Path == p {
					next.ServeHTTP(w, r)
					return
				}
			}
			select {
			case slots <- struct{}{}:
				// Fast path: a slot was free, so r.Context().Done() — whose
				// channel the http.Server materializes lazily, costing an
				// allocation — is never touched.
			default:
				select {
				case slots <- struct{}{}:
				case <-r.Context().Done():
					writeError(w, &apiError{Status: http.StatusServiceUnavailable,
						Body:              ErrorBody{"overloaded", "request cancelled while queued for a slot"},
						RetryAfterSeconds: 1})
					return
				}
			}
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		})
	}
}
