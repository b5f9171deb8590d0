// Package client is the typed Go SDK for the balarch balance-as-a-service
// HTTP API (internal/server, served by cmd/balarchd). It exposes one method
// per /v1 endpoint plus the health and metrics probes, all context-aware:
//
//	c, err := client.New("http://127.0.0.1:8080")
//	a, err := c.Analyze(ctx, &client.AnalyzeRequest{
//	        PE:          client.PE{C: 50e6, IO: 1e6, M: 4096},
//	        Computation: client.Computation{Name: "fft"},
//	})
//	// a.State == "io-bound", a.BalancedMemory == 1<<20
//
// Every request and response type is an alias of the server's wire type, so
// the SDK and the service cannot drift apart. Non-2xx responses decode the
// API's error envelope into *APIError, which carries the HTTP status, the
// stable machine-readable code, the human-readable message, and the echoed
// X-Request-ID — switch on Code (or errors.As for the type) instead of
// parsing prose.
//
// The zero-configuration client reuses connections aggressively (a shared
// keep-alive transport sized for many concurrent workers — the load
// generator in internal/loadgen runs on this client). WithRetryPolicy
// opts into bounded retry of overload responses (503) and transport
// errors; every API operation is a pure computation, so retries are
// always safe. For tests and embedders, NewFromHandler binds the client
// directly to an http.Handler — typically balarch.NewServerHandler — with
// no socket.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"balarch/internal/obs"
	"balarch/internal/server"
)

// Wire types, aliased from the server so request and response shapes are
// identical on both ends by construction.
type (
	// PE is a processing element: computation bandwidth C (ops/s), I/O
	// bandwidth IO (words/s), local memory M (words).
	PE = server.PEDTO
	// Computation names one catalog computation ("matmul", "fft", …).
	Computation = server.ComputationDTO
	// Level is one memory level of a hierarchy request (innermost first):
	// capacity M words behind a boundary of BW words/s. Putting a Levels
	// array on an analyze/rebalance/roofline/sweep request switches it to
	// the hierarchy-aware model.
	Level = server.LevelDTO
	// Boundary is one boundary's balance diagnosis in a hierarchy
	// analyze response.
	Boundary = server.BoundaryDTO
	// RebalanceBoundary is one boundary's cumulative requirement in a
	// hierarchy rebalance response.
	RebalanceBoundary = server.RebalanceBoundaryDTO
	// LevelBill is one level's line of a hierarchy rebalance memory bill.
	LevelBill = server.LevelBillDTO
	// Ridge is one boundary's ridge on a multi-ridge roofline response.
	Ridge = server.RidgeDTO
	// CatalogEntry/CatalogResponse are the GET /v1/catalog wire types:
	// the computation ids the API accepts, with paper metadata and growth
	// laws, so clients enumerate instead of hard-coding.
	CatalogEntry    = server.CatalogEntry
	CatalogResponse = server.CatalogResponse

	// AnalyzeRequest/AnalyzeResponse are the POST /v1/analyze wire types.
	AnalyzeRequest  = server.AnalyzeRequest
	AnalyzeResponse = server.AnalyzeResponse
	// RebalanceRequest/RebalanceResponse are the POST /v1/rebalance types.
	RebalanceRequest  = server.RebalanceRequest
	RebalanceResponse = server.RebalanceResponse
	// RooflineRequest/RooflineResponse are the POST /v1/roofline types.
	RooflineRequest  = server.RooflineRequest
	RooflineResponse = server.RooflineResponse
	// SweepRequest/SweepResponse are the POST /v1/sweep types.
	SweepRequest  = server.SweepRequest
	SweepResponse = server.SweepResponse
	// EmulationRequest/EmulationResponse are the POST /v1/emulation types:
	// Hanlon's question — N small memory modules behaving as one large
	// memory — answered against the ideal flat machine.
	EmulationRequest  = server.EmulationRequest
	EmulationResponse = server.EmulationResponse
	// EmulationSide is one machine's balance diagnosis inside an
	// EmulationResponse (the emulated hierarchy or the ideal flat PE).
	EmulationSide = server.EmulationSideDTO
	// BatchRequest/BatchItem/BatchResponse are the POST /v1/batch types.
	BatchRequest  = server.BatchRequest
	BatchItem     = server.BatchItem
	BatchResponse = server.BatchResponse
	// ExperimentsResponse lists the registry (GET /v1/experiments);
	// ExperimentRunResponse is one run's report (POST /v1/experiments/{id}).
	ExperimentsResponse   = server.ExperimentsResponse
	ExperimentRunResponse = server.ExperimentRunResponse
	// JobSubmitRequest is the POST /v1/jobs body: a batch-item envelope
	// ({op, request}) executed durably and asynchronously.
	JobSubmitRequest = server.JobSubmitRequest
	// JobStatus is one async job's status (submit/get/list responses).
	JobStatus = server.JobStatusDTO
	// JobListResponse is the GET /v1/jobs body.
	JobListResponse = server.JobListResponse
	// JobDeleteResponse is the DELETE /v1/jobs/{id} body.
	JobDeleteResponse = server.JobDeleteResponse
	// JobProgress is the data payload of a job stream's "progress" SSE
	// event: one engine pool completion inside the running job.
	JobProgress = server.ProgressDTO
	// APIIndexResponse is the GET /v1/ body: the API surface as data —
	// routes, error codes, computation ids, experiment ids.
	APIIndexResponse = server.APIIndexResponse
	// APIRouteInfo is one route in APIIndexResponse.
	APIRouteInfo = server.APIRouteInfo
	// TenantSnapshot is one tenant's slice of the /metrics counters on a
	// tenancy-enabled server.
	TenantSnapshot = server.TenantSnapshot
	// HealthResponse is the GET /healthz body.
	HealthResponse = server.HealthResponse
	// ReadyResponse is the GET /readyz body on a ready server (a draining
	// one answers 503 with the standard error envelope, code "draining").
	ReadyResponse = server.ReadyResponse
	// MetricsSnapshot is the GET /metrics body, including the per-route
	// latency summaries the load generator cross-checks against.
	MetricsSnapshot = server.Snapshot
	// RouteLatency is one route's latency summary inside MetricsSnapshot.
	RouteLatency = server.RouteLatency
)

// RequestIDHeader is the correlation header the server echoes.
const RequestIDHeader = server.RequestIDHeader

// Job priority classes for JobSubmitRequest.Priority. Priority orders
// picks within one tenant's backlog; tenant fairness wins across
// tenants. Leaving the field empty (or JobPriorityNormal) keeps the
// request byte-identical to the pre-priority wire format.
const (
	JobPriorityLow    = "low"
	JobPriorityNormal = ""
	JobPriorityHigh   = "high"
)

// APIError is a decoded non-2xx response: the typed error envelope plus the
// HTTP status and the echoed request id.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's stable machine-readable identifier, e.g.
	// "bad_json", "invalid_argument", "unknown_experiment", "overloaded".
	Code string
	// Message is the envelope's human-readable cause.
	Message string
	// RequestID is the response's X-Request-ID header, for correlating
	// with server logs.
	RequestID string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("balarch api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the SDK's shared keep-alive http.Client; use it
// to plug in instrumentation or custom TLS.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// RetryPolicy is the consolidated retry configuration (WithRetryPolicy):
// how many attempts in total, the base of the linear backoff schedule
// (backoff, 2·backoff, …), and an optional cap on any single sleep.
type RetryPolicy struct {
	// Attempts is the total number of tries; ≤ 1 disables retry.
	Attempts int
	// Backoff is the schedule base: the sleep before try n+1 is
	// n·Backoff (before any Retry-After hint or MaxBackoff cap).
	Backoff time.Duration
	// MaxBackoff, when positive, caps each sleep — schedule and server
	// hint alike — so a long run of refusals cannot stretch one wait
	// unboundedly. 0 leaves the schedule uncapped.
	MaxBackoff time.Duration
}

// WithRetryPolicy enables bounded retry: a request that fails in
// transport, returns 503 (overload, drain, or a cancelled run), returns
// 502 (a gateway lost the node mid-proxy), or
// returns 429 (rate limit or job-admission refusal) is reissued up to
// Attempts times in total, sleeping per the policy between tries
// (context-aware). A throttling response's Retry-After header — the
// server sends one on every 429 and 503 — is honored: the sleep before
// the next attempt is the larger of the schedule and the server's hint,
// clipped to MaxBackoff. Every API operation is a pure computation (and
// job submission is idempotent — identical requests share one job), so
// retrying is always safe.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// WithAPIKey attaches a tenant API key to every request the client
// issues (Authorization: Bearer <key>), for servers running with a
// tenants config. Per-request override: DoAs.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithTracing sends a fresh W3C traceparent (sampled) on every request,
// so the server captures each one's trace in its /debug/traces ring. The
// header sent is recorded on Response.Traceparent; TraceEchoed reports
// whether the server joined the trace. Each retry attempt gets its own
// span id — two attempts of one logical call are distinct traces.
func WithTracing() Option {
	return func(c *Client) { c.tracing = true }
}

// The keep-alive transport registry, one *http.Transport per target
// host. The stdlib default keeps only 2 idle connections per host, which
// makes a many-worker load run reopen sockets constantly; each balarch
// target instead gets its own transport with MaxConnsPerHost and
// MaxIdleConnsPerHost sized for the load generator's worker counts. Per
// host rather than one shared transport so a multi-target process — a
// load run against a gateway plus direct node probes, say — cannot have
// one host's connection churn evict another's idle pool through the
// transport-wide MaxIdleConns cap.
const transportConnsPerHost = 256

var (
	transportMu sync.Mutex
	transports  = map[string]*http.Transport{}
)

// transportForHost returns (building on first use) the host's transport.
func transportForHost(host string) *http.Transport {
	transportMu.Lock()
	defer transportMu.Unlock()
	if t, ok := transports[host]; ok {
		return t
	}
	t := &http.Transport{
		MaxConnsPerHost:     transportConnsPerHost,
		MaxIdleConns:        transportConnsPerHost,
		MaxIdleConnsPerHost: transportConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}
	transports[host] = t
	return t
}

// Client is a typed handle on one balarch API server. It is safe for
// concurrent use; all methods honor their context.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	apiKey  string
	tracing bool
}

// New returns a client for the server at baseURL (scheme and host, e.g.
// "http://127.0.0.1:8080"; any trailing slash is trimmed).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Transport: transportForHost(u.Host)},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// handlerTransport serves round trips straight into an http.Handler: the
// in-process mode used by tests, examples, and the load generator's
// -inprocess runs. No socket, no serialization loss — the handler sees a
// real *http.Request and writes a real response.
type handlerTransport struct{ h http.Handler }

// RoundTrip implements http.RoundTripper.
func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}

// NewFromHandler returns a client bound directly to h — typically
// balarch.NewServerHandler(opts) — so callers can exercise the full API
// stack in process.
func NewFromHandler(h http.Handler, opts ...Option) *Client {
	c := &Client{
		base: "http://in-process",
		http: &http.Client{Transport: handlerTransport{h}},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Response is a raw API exchange: what Do returns. Typed methods are built
// on it; the load generator uses it directly to time and classify traffic.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Header is the response header (X-Request-ID is always present).
	Header http.Header
	// Body is the full response body.
	Body []byte
	// Traceparent is the W3C trace-context header this request carried
	// (set by WithTracing; empty otherwise).
	Traceparent string
}

// ServerTiming returns the response's Server-Timing header — the
// per-stage breakdown the server attaches to trace=1 requests — or ""
// when the server sent none.
func (r *Response) ServerTiming() string {
	return r.Header.Get("Server-Timing")
}

// TraceEchoed reports whether the server joined the trace this request
// carried: the response's Traceparent header names the same trace id the
// request sent (the server always re-parents with its own span id, so
// only the trace id halves are compared). Always false on requests that
// sent no traceparent.
func (r *Response) TraceEchoed() bool {
	if r.Traceparent == "" {
		return false
	}
	return obs.SameTrace(r.Traceparent, r.Header.Get("Traceparent"))
}

// Do issues one request against the API: method and path (e.g. "POST",
// "/v1/analyze") with the given JSON body (nil for GETs). It applies the
// client's retry policy and returns the raw exchange; any HTTP status is a
// successful Do. Typed methods are usually what you want — Do is the escape
// hatch for traffic generation and new endpoints.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	return c.do(ctx, c.apiKey, method, path, body)
}

// DoAs is Do with an explicit tenant API key for this one request,
// overriding (or, when the client has none, supplying) WithAPIKey. The
// load generator uses it to drive several tenants through one client.
func (c *Client) DoAs(ctx context.Context, apiKey, method, path string, body []byte) (*Response, error) {
	return c.do(ctx, apiKey, method, path, body)
}

func (c *Client) do(ctx context.Context, apiKey, method, path string, body []byte) (*Response, error) {
	var (
		lastErr    error
		retryAfter time.Duration // server's Retry-After hint from the last 429/503
	)
	attempts := c.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	for try := 0; try < attempts; try++ {
		if try > 0 {
			// The schedule is backoff, 2·backoff, …; a throttling
			// response's Retry-After hint overrides it when larger — the
			// server knows when budget will free up, the schedule does
			// not. MaxBackoff clips whichever won.
			d := time.Duration(try) * c.retry.Backoff
			if retryAfter > d {
				d = retryAfter
			}
			if c.retry.MaxBackoff > 0 && d > c.retry.MaxBackoff {
				d = c.retry.MaxBackoff
			}
			if err := sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		retryAfter = 0
		resp, err := c.roundTrip(ctx, apiKey, method, path, body)
		if err != nil {
			lastErr = err
			continue // transport error: retry
		}
		if retriableStatus(resp.Status) && try < attempts-1 {
			// Both throttling statuses carry Retry-After under the
			// unified envelope: 429 (rate_limited, over_budget) and 503
			// (overloaded, draining, cancelled).
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			lastErr = DecodeAPIError(resp)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w",
		method, path, attempts, lastErr)
}

// retriableStatus lists the responses WithRetryPolicy reissues: overload (503),
// admission refusal (429), and a gateway's upstream failure (502 — the
// node died mid-proxy; the gateway has already ejected it, so the retry
// lands on a surviving node). All three mean "later", not "never".
func retriableStatus(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway
}

// parseRetryAfter reads the header's delta-seconds form (the only form
// the balarch server emits); absent or unparsable means no hint.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep is sleepCtx behind a seam the retry-schedule test pins.
var sleep = sleepCtx

// roundTrip is one attempt of Do.
func (c *Client) roundTrip(ctx context.Context, apiKey, method, path string, body []byte) (*Response, error) {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	var traceparent string
	if c.tracing {
		traceparent = obs.NewTraceparent(true)
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header,
		Body: buf.Bytes(), Traceparent: traceparent}, nil
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call marshals req, posts it to path, and decodes a 200 into a fresh Resp;
// any other status becomes *APIError.
func call[Req any, Resp any](ctx context.Context, c *Client, method, path string, req *Req) (*Resp, error) {
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
	}
	raw, err := c.Do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if raw.Status != http.StatusOK {
		return nil, DecodeAPIError(raw)
	}
	out := new(Resp)
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return nil, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return out, nil
}

// DecodeAPIError turns a non-2xx raw exchange into *APIError, decoding the
// typed envelope when present and falling back to a body snippet when the
// response came from something other than the API (a proxy, say).
func DecodeAPIError(raw *Response) *APIError {
	ae := &APIError{Status: raw.Status, RequestID: raw.Header.Get(RequestIDHeader)}
	var env struct {
		Error server.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(raw.Body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		return ae
	}
	ae.Code = "http_error"
	snippet := string(raw.Body)
	if len(snippet) > 200 {
		snippet = snippet[:200] + "…"
	}
	ae.Message = strings.TrimSpace(snippet)
	return ae
}

// WaitHealthy polls GET /healthz until the server answers or wait runs
// out, sleeping 100ms between attempts (context-aware). The readiness
// preflight for tools that boot a daemon and immediately drive it
// (cmd/balarchload, cmd/clientsmoke, ci/soak.sh). It returns the last
// health error on timeout, and the healthy response otherwise.
func (c *Client) WaitHealthy(ctx context.Context, wait time.Duration) (*HealthResponse, error) {
	deadline := time.Now().Add(wait)
	for {
		h, err := c.Health(ctx)
		if err == nil {
			return h, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: target not healthy after %v: %w", wait, err)
		}
		if err := sleepCtx(ctx, 100*time.Millisecond); err != nil {
			return nil, err
		}
	}
}

// Analyze asks POST /v1/analyze: is this PE balanced for this computation,
// and what memory would balance it?
func (c *Client) Analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	return call[AnalyzeRequest, AnalyzeResponse](ctx, c, http.MethodPost, "/v1/analyze", req)
}

// Rebalance asks POST /v1/rebalance: C/IO grew by α — how much memory
// restores balance?
func (c *Client) Rebalance(ctx context.Context, req *RebalanceRequest) (*RebalanceResponse, error) {
	return call[RebalanceRequest, RebalanceResponse](ctx, c, http.MethodPost, "/v1/rebalance", req)
}

// Roofline asks POST /v1/roofline: the PE's roofline with each requested
// computation's path along it.
func (c *Client) Roofline(ctx context.Context, req *RooflineRequest) (*RooflineResponse, error) {
	return call[RooflineRequest, RooflineResponse](ctx, c, http.MethodPost, "/v1/roofline", req)
}

// Sweep asks POST /v1/sweep: run (or recall) one instrumented kernel sweep
// and return the measured ratio curve.
func (c *Client) Sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	return call[SweepRequest, SweepResponse](ctx, c, http.MethodPost, "/v1/sweep", req)
}

// Emulation asks POST /v1/emulation: do N memory modules emulate one
// large memory for this computation, and at what efficiency?
func (c *Client) Emulation(ctx context.Context, req *EmulationRequest) (*EmulationResponse, error) {
	return call[EmulationRequest, EmulationResponse](ctx, c, http.MethodPost, "/v1/emulation", req)
}

// Batch posts POST /v1/batch: heterogeneous sub-requests fanned out on the
// server's worker pool, results in request order.
func (c *Client) Batch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	return call[BatchRequest, BatchResponse](ctx, c, http.MethodPost, "/v1/batch", req)
}

// Catalog lists the computation catalog (GET /v1/catalog): every id the
// API accepts in Computation.Name, with its growth law and ratio family.
func (c *Client) Catalog(ctx context.Context) (*CatalogResponse, error) {
	return call[struct{}, CatalogResponse](ctx, c, http.MethodGet, "/v1/catalog", nil)
}

// Experiments lists the experiment registry (GET /v1/experiments).
func (c *Client) Experiments(ctx context.Context) (*ExperimentsResponse, error) {
	return call[struct{}, ExperimentsResponse](ctx, c, http.MethodGet, "/v1/experiments", nil)
}

// RunExperiment reproduces one experiment by id (POST /v1/experiments/{id})
// and returns its JSON report with the pass verdict.
func (c *Client) RunExperiment(ctx context.Context, id string) (*ExperimentRunResponse, error) {
	return call[struct{}, ExperimentRunResponse](ctx, c, http.MethodPost,
		"/v1/experiments/"+url.PathEscape(id), nil)
}

// APIIndex fetches GET /v1/: the machine-readable API surface — every
// route, error code, computation id, and experiment id the server
// serves.
func (c *Client) APIIndex(ctx context.Context) (*APIIndexResponse, error) {
	return call[struct{}, APIIndexResponse](ctx, c, http.MethodGet, "/v1/", nil)
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	return call[struct{}, HealthResponse](ctx, c, http.MethodGet, "/healthz", nil)
}

// Ready probes GET /readyz — the readiness probe, distinct from Health's
// liveness: a draining server answers its health check but refuses new
// work here (503 *APIError, code "draining").
func (c *Client) Ready(ctx context.Context) (*ReadyResponse, error) {
	return call[struct{}, ReadyResponse](ctx, c, http.MethodGet, "/readyz", nil)
}

// Metrics fetches GET /metrics: the server's counters, including the
// per-route latency summaries.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	return call[struct{}, MetricsSnapshot](ctx, c, http.MethodGet, "/metrics", nil)
}

// --- async jobs (POST /v1/jobs and friends) ---

// SubmitJob posts POST /v1/jobs: the envelope is journaled durably before
// the ack and executed asynchronously. The returned status is usually
// "queued" (202); an identical request already completed — on this server
// or any past one sharing the store directory — comes back "done" (200)
// immediately, deduplicated against the content-addressed store. A 429
// admission refusal surfaces as *APIError (code "over_budget"); with
// WithRetryPolicy the client resleeps per the server's Retry-After first.
func (c *Client) SubmitJob(ctx context.Context, req *JobSubmitRequest) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding POST /v1/jobs request: %w", err)
	}
	raw, err := c.Do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return nil, err
	}
	if raw.Status != http.StatusOK && raw.Status != http.StatusAccepted {
		return nil, DecodeAPIError(raw)
	}
	out := new(JobStatus)
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return nil, fmt.Errorf("client: decoding POST /v1/jobs response: %w", err)
	}
	return out, nil
}

// GetJob polls GET /v1/jobs/{id}.
func (c *Client) GetJob(ctx context.Context, id string) (*JobStatus, error) {
	return call[struct{}, JobStatus](ctx, c, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
}

// ListJobs fetches GET /v1/jobs, optionally filtered to one state
// ("queued", "running", "done", "failed", "canceled"; "" lists all).
func (c *Client) ListJobs(ctx context.Context, state string) (*JobListResponse, error) {
	path := "/v1/jobs"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	return call[struct{}, JobListResponse](ctx, c, http.MethodGet, path, nil)
}

// ListJobsPage fetches one page of GET /v1/jobs: at most limit jobs
// (limit ≤ 0 lists everything, like ListJobs), resuming after cursor
// ("" starts from the newest). A non-empty NextCursor on the response
// means more pages remain; Jobs ranges them all.
func (c *Client) ListJobsPage(ctx context.Context, state string, limit int, cursor string) (*JobListResponse, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", state)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return call[struct{}, JobListResponse](ctx, c, http.MethodGet, path, nil)
}

// JobsPager iterates GET /v1/jobs page by page. Create one with Jobs,
// then loop while More, calling Next:
//
//	for p := c.Jobs("", 100); p.More(); {
//	        page, err := p.Next(ctx)
//	        ...
//	}
type JobsPager struct {
	c      *Client
	state  string
	limit  int
	cursor string
	done   bool
}

// Jobs returns a pager over GET /v1/jobs: pages of at most limit jobs
// (limit ≤ 0 fetches everything in one page), optionally filtered to one
// state.
func (c *Client) Jobs(state string, limit int) *JobsPager {
	return &JobsPager{c: c, state: state, limit: limit}
}

// More reports whether another Next call would fetch a page.
func (p *JobsPager) More() bool { return !p.done }

// Next fetches the next page. After an error the pager's position is
// unchanged — the same Next can be retried.
func (p *JobsPager) Next(ctx context.Context) (*JobListResponse, error) {
	if p.done {
		return &JobListResponse{Jobs: []JobStatus{}}, nil
	}
	page, err := p.c.ListJobsPage(ctx, p.state, p.limit, p.cursor)
	if err != nil {
		return nil, err
	}
	p.cursor = page.NextCursor
	p.done = page.NextCursor == ""
	return page, nil
}

// JobResult fetches GET /v1/jobs/{id}/result: the stored result bytes,
// byte-identical to the synchronous endpoint's response for the same
// request. A job not yet done is a 409 *APIError (code "not_done");
// failed and canceled jobs carry their own codes.
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	raw, err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	if raw.Status != http.StatusOK {
		return nil, DecodeAPIError(raw)
	}
	return raw.Body, nil
}

// CancelJob issues DELETE /v1/jobs/{id}: a live job is canceled, a
// terminal one forgotten (its content-addressed result stays in the
// store).
func (c *Client) CancelJob(ctx context.Context, id string) (*JobDeleteResponse, error) {
	return call[struct{}, JobDeleteResponse](ctx, c, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil)
}

// WaitForJob blocks until the job reaches a terminal state or ctx ends,
// and returns the terminal status whatever it is — done, failed, or
// canceled; deciding what failure means is the caller's business. Fetch
// a done job's bytes with JobResult.
//
// It consumes the server's SSE stream (GET /v1/jobs/{id}/events) when
// available, so completion arrives pushed instead of polled; against a
// server without the route — or when the server drops the stream — it
// falls back to polling GET /v1/jobs/{id} every interval (≤ 0 means
// 100 ms).
func (c *Client) WaitForJob(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	j, err := c.StreamJob(ctx, id, nil)
	if err == nil && j != nil {
		return j, nil
	}
	if err != nil && !waitShouldPoll(err) {
		return nil, err
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	for {
		j, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		switch j.State {
		case "done", "failed", "canceled":
			return j, nil
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return nil, fmt.Errorf("client: waiting for job %s (last state %s): %w", id, j.State, err)
		}
	}
}

// waitShouldPoll decides whether a StreamJob failure means "this job is
// unreachable" (propagate) or "this transport/server cannot stream"
// (fall back to polling): unknown_route is a server predating the events
// endpoint, a dropped stream means the job is still live server-side,
// and a transport error may be a proxy that cannot hold a stream open.
func waitShouldPoll(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		// The API answered: only a server without the route falls back;
		// unknown_job, jobs_disabled, draining etc. would fail a poll
		// identically, so surface them now.
		return ae.Code == "unknown_route"
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // stream dropped or transport failure: poll
}
