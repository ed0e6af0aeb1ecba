// Package httpserve is the networked serving frontend: an HTTP/JSON facade
// over the model registry (internal/registry) engineered for failure first.
// The estimator only pays off inside a query optimizer, and the integration
// exemplars all drive the model over a database wire protocol from non-Go
// clients — so the wire layer must uphold the same robustness contract the
// core does: degrade, shed, and drain instead of stalling or corrupting
// accounting.
//
// The frontend adds three protections in front of the estimate path:
//
//   - Deadline propagation: every request carries a deadline (default,
//     header, or query-param supplied) threaded as a context.Context through
//     registry.EstimateContext into the coalescer, so a caller that gives up
//     unblocks immediately and its abandoned batch slot is reclaimed
//     (serve.Batcher claim-at-flush). An expired request never occupies
//     estimator capacity.
//
//   - Admission control: at most MaxInFlight estimates run concurrently;
//     at most MaxQueue more may wait for a slot. Beyond that, requests are
//     shed instantly with 429 + Retry-After — a fast rejection is the
//     contract that keeps accepted-request latency bounded at overload.
//
//   - Graceful drain: Drain stops intake (503) and waits for in-flight
//     requests, reusing Server.Close/registry semantics underneath, so a
//     shutdown never strands a caller or loses an accepted estimate.
//
// Observability rides on internal/metrics (/metrics serves the shared
// registry snapshot; http.* instruments count every admission outcome) and
// /healthz·/readyz surface liveness and the core degradation ladder.
// Network chaos — connection drops, injected 5xx, added latency — comes
// from internal/fault's netdrop/net5xx/netdelay points, injected at request
// intake so a faulted request is never double-counted as accepted. The
// servedelay point instead stalls an admitted estimate inside its in-flight
// slot, emulating device service time.
//
// Error taxonomy (JSON body {"error": ..., "code": ...}):
//
//	400 bad_request     malformed JSON, unparseable model key
//	400 invalid_query   query rejected by estimator validation
//	404 unknown_model   key never admitted
//	408 client_gone     client disconnected mid-request
//	429 shed            admission queue full (Retry-After set)
//	500 internal        estimator failure
//	500 injected        fault-injected 5xx (chaos testing)
//	503 draining        server draining or registry closed (Retry-After set)
//	504 deadline        per-request deadline expired before evaluation
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/shard"
)

// Defaults for the admission and deadline knobs; see Config.
const (
	DefaultMaxInFlight = 64
	DefaultTimeout     = time.Second
	DefaultMaxTimeout  = 10 * time.Second
	DefaultRetryAfter  = 50 * time.Millisecond
	// DefaultIngestLagDegraded is the /readyz lag threshold; see
	// Config.IngestLagDegraded.
	DefaultIngestLagDegraded = 512
)

// TimeoutHeader and TimeoutParam let a caller bound one request's latency:
// the value is milliseconds, clamped to Config.MaxTimeout. The query
// parameter wins when both are present.
const (
	TimeoutHeader = "X-Kdesel-Timeout-Ms"
	TimeoutParam  = "timeout_ms"
)

// RetryAfterMsHeader carries the Retry-After hint at millisecond resolution
// alongside the standard (whole-seconds) Retry-After header, because shed
// backoff at estimator latencies is sub-second.
const RetryAfterMsHeader = "Retry-After-Ms"

// Config tunes a Server. Registry is required; everything else defaults.
type Config struct {
	// Registry routes estimates/feedback/analyze per model key. The server
	// does not own it: Close drains HTTP intake but leaves the registry (and
	// its models) to the caller, matching CLI shutdown order — drain the
	// edge first, checkpoint and close models second.
	Registry *registry.Registry
	// DefaultModel, when set, is the key (canonical "table(c0,c1)" form)
	// used by requests that omit "model".
	DefaultModel string
	// MaxInFlight caps concurrently evaluating estimates (default
	// DefaultMaxInFlight).
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot (default
	// 2·MaxInFlight). Beyond it requests are shed with 429.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the caller supplies
	// none (default DefaultTimeout). Negative disables the default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps caller-supplied deadlines (default
	// DefaultMaxTimeout).
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429/503 responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// Metrics, when non-nil, receives the http.* instruments and is the
	// registry served by /metrics (normally the same shared registry the
	// models are instrumented on). Nil disables both.
	Metrics *metrics.Registry
	// MetricPrefix namespaces the http.* instruments (e.g. "edge." yields
	// edge.http.requests); empty means unprefixed.
	MetricPrefix string
	// Faults, when non-nil, injects network chaos at request intake: the
	// netdelay point stalls, net5xx answers 500, netdrop severs the
	// connection without a response. Injection happens before admission, so
	// a faulted request is never counted as accepted. The servedelay point
	// is the exception: it stalls an admitted /estimate inside its in-flight
	// slot, emulating device service time.
	Faults *fault.Injector
	// IngestLagDegraded is the continuous-ingestion lag (buffered-but-
	// unapplied mutations) at or above which a model reports degraded on
	// /readyz (default DefaultIngestLagDegraded; negative disables
	// lag-based degradation). Lagging models still serve — they answer
	// from the latest published snapshot — so lag degrades readiness
	// rather than failing it, same as the core health ladder.
	IngestLagDegraded int
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 2 * c.maxInFlight()
}

func (c Config) defaultTimeout() time.Duration {
	switch {
	case c.DefaultTimeout > 0:
		return c.DefaultTimeout
	case c.DefaultTimeout < 0:
		return 0
	default:
		return DefaultTimeout
	}
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return DefaultMaxTimeout
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return DefaultRetryAfter
}

func (c Config) ingestLagDegraded() int {
	switch {
	case c.IngestLagDegraded > 0:
		return c.IngestLagDegraded
	case c.IngestLagDegraded < 0:
		return 0
	default:
		return DefaultIngestLagDegraded
	}
}

// maxBody bounds request bodies; a feedback batch of a few thousand ranges
// fits comfortably, a runaway client does not.
const maxBody = 1 << 20

// Server is the HTTP frontend. It implements http.Handler, so it mounts
// directly on net/http.Server or httptest. Construct with New; the zero
// value is not usable.
type Server struct {
	cfg      Config
	reg      *registry.Registry
	faults   *fault.Injector
	mux      *http.ServeMux
	deftKey  registry.Key
	hasDeft  bool
	timeout  time.Duration
	maxTo    time.Duration
	retryHdr time.Duration

	tokens   chan struct{} // in-flight slots
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{} // closed by Drain: unblocks queued waiters
	wg       sync.WaitGroup
	drainOne sync.Once

	met struct {
		reg        *metrics.Registry
		prefix     string
		requests   *metrics.Counter // every data-plane request received
		accepted   *metrics.Counter // evaluated successfully
		shed       *metrics.Counter // rejected 429 (queue full)
		rejected   *metrics.Counter // rejected 503 (draining/closed)
		deadline   *metrics.Counter // 504 (deadline expired pre-result)
		failed     *metrics.Counter // 4xx/5xx semantic or internal failures
		inject5xx  *metrics.Counter
		injectDrop *metrics.Counter
		reqSec     *metrics.Histogram // accepted-request latency
		shedSec    *metrics.Histogram // shed-rejection latency
	}
}

// New builds the frontend over cfg.Registry.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("httpserve: Config.Registry is required")
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		faults:   cfg.Faults,
		timeout:  cfg.defaultTimeout(),
		maxTo:    cfg.maxTimeout(),
		retryHdr: cfg.retryAfter(),
		tokens:   make(chan struct{}, cfg.maxInFlight()),
		drainCh:  make(chan struct{}),
	}
	if cfg.DefaultModel != "" {
		k, err := registry.ParseKey(cfg.DefaultModel)
		if err != nil {
			return nil, fmt.Errorf("httpserve: bad DefaultModel: %w", err)
		}
		s.deftKey, s.hasDeft = k, true
	}
	if m := cfg.Metrics; m != nil {
		p := cfg.MetricPrefix
		s.met.reg = m
		s.met.prefix = p
		s.met.requests = m.Counter(p + "http.requests")
		s.met.accepted = m.Counter(p + "http.accepted")
		s.met.shed = m.Counter(p + "http.shed")
		s.met.rejected = m.Counter(p + "http.rejected")
		s.met.deadline = m.Counter(p + "http.deadline_expired")
		s.met.failed = m.Counter(p + "http.failed")
		s.met.inject5xx = m.Counter(p + "http.injected_5xx")
		s.met.injectDrop = m.Counter(p + "http.injected_drops")
		s.met.reqSec = m.Histogram(p + "http.request_seconds")
		s.met.shedSec = m.Histogram(p + "http.shed_seconds")
		m.RegisterGaugeFunc(p+"http.inflight", func() float64 { return float64(s.inflight.Load()) })
		m.RegisterGaugeFunc(p+"http.queue_depth", func() float64 { return float64(s.queued.Load()) })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.handleEstimate)
	mux.HandleFunc("POST /feedback", s.handleFeedback)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /models", s.handleModels)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops intake — every subsequent data-plane request is rejected with
// 503 draining, and /readyz flips to 503 — and waits for in-flight requests
// to complete or ctx to expire. Safe to call more than once; the first call
// performs the drain. Probe and metrics endpoints keep answering so
// operators can watch the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("httpserve: drain: %w", ctx.Err())
	}
}

// Close drains with no deadline and unregisters the server's gauge funcs so
// a retired frontend stops reporting and is not pinned by the metrics
// registry. The model registry is left untouched (see Config.Registry).
func (s *Server) Close() error {
	err := s.Drain(context.Background())
	if s.met.reg != nil {
		s.met.reg.UnregisterGaugeFunc(s.met.prefix + "http.inflight")
		s.met.reg.UnregisterGaugeFunc(s.met.prefix + "http.queue_depth")
	}
	return err
}

// Draining reports whether intake has been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorResponse is the wire form of every non-2xx outcome.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		secs := int(s.retryHdr / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(s.retryHdr.Milliseconds(), 10))
	}
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

// injectFaults runs the network chaos points for one data-plane request.
// It reports whether the request should continue; on false a response (or
// none, for a drop) has already been produced. Intake-side injection keeps
// the accounting identity exact: a faulted request fails before admission,
// so it can never also count as accepted.
func (s *Server) injectFaults(w http.ResponseWriter) bool {
	if s.faults == nil {
		return true
	}
	if d := s.faults.FireDelay(fault.NetDelay); d > 0 {
		time.Sleep(d)
	}
	if s.faults.Fire(fault.NetDrop) {
		s.met.injectDrop.Inc()
		s.met.failed.Inc()
		// http.ErrAbortHandler makes net/http sever the connection without
		// writing a response — the closest stdlib equivalent of a mid-flight
		// network partition.
		panic(http.ErrAbortHandler)
	}
	if s.faults.Fire(fault.NetError) {
		s.met.inject5xx.Inc()
		s.met.failed.Inc()
		s.writeErr(w, http.StatusInternalServerError, "injected", "fault-injected server error")
		return false
	}
	return true
}

// enter is the common data-plane prologue: fault injection, drain check,
// in-flight registration. It reports whether the handler may proceed; when
// true the caller must defer exit().
func (s *Server) enter(w http.ResponseWriter) bool {
	s.met.requests.Inc()
	if !s.injectFaults(w) {
		return false
	}
	s.wg.Add(1)
	if s.draining.Load() {
		s.wg.Done()
		s.met.rejected.Inc()
		s.writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return false
	}
	return true
}

func (s *Server) exit() { s.wg.Done() }

// admit acquires an in-flight slot, shedding instantly when the wait queue
// is full. It returns a release func on success; on failure the response
// has been written. Shedding is the fast path by construction: a full
// queue is one atomic add and an immediate 429, never a wait.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, start time.Time) (func(), bool) {
	select {
	case s.tokens <- struct{}{}:
	default:
		// No free slot: join the bounded wait queue or shed.
		if s.queued.Add(1) > int64(s.cfg.maxQueue()) {
			s.queued.Add(-1)
			s.met.shed.Inc()
			s.met.shedSec.ObserveDuration(time.Since(start))
			s.writeErr(w, http.StatusTooManyRequests, "shed", "admission queue full")
			return nil, false
		}
		select {
		case s.tokens <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.met.deadline.Inc()
			s.writeErr(w, http.StatusGatewayTimeout, "deadline", "deadline expired while queued")
			return nil, false
		case <-s.drainCh:
			s.queued.Add(-1)
			s.met.rejected.Inc()
			s.writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
			return nil, false
		}
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.tokens
	}, true
}

// serviceDelay holds the caller's in-flight slot for d, or until ctx ends;
// an expired ctx then fails the estimate with its deadline error.
func serviceDelay(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// requestContext derives the per-request deadline: TimeoutParam, then
// TimeoutHeader, then the configured default, all clamped to MaxTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.timeout
	raw := r.URL.Query().Get(TimeoutParam)
	if raw == "" {
		raw = r.Header.Get(TimeoutHeader)
	}
	if raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want positive milliseconds)", raw)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	if d > s.maxTo {
		d = s.maxTo
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) modelKey(name string) (registry.Key, error) {
	if name == "" {
		if s.hasDeft {
			return s.deftKey, nil
		}
		return registry.Key{}, errors.New("request omits \"model\" and no default model is configured")
	}
	return registry.ParseKey(name)
}

// writeModelErr maps registry/core errors onto the wire taxonomy.
func (s *Server) writeModelErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.deadline.Inc()
		s.writeErr(w, http.StatusGatewayTimeout, "deadline", "deadline expired before evaluation completed")
	case errors.Is(err, context.Canceled):
		// The per-request context is canceled only via the client's
		// connection context; the caller is gone.
		s.met.failed.Inc()
		s.writeErr(w, http.StatusRequestTimeout, "client_gone", "client disconnected")
	case errors.Is(err, registry.ErrUnknownModel):
		s.met.failed.Inc()
		s.writeErr(w, http.StatusNotFound, "unknown_model", err.Error())
	case errors.Is(err, core.ErrInvalidQuery), errors.Is(err, core.ErrInvalidFeedback):
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "invalid_query", err.Error())
	case errors.Is(err, registry.ErrClosed), errors.Is(err, shard.ErrClosed):
		s.met.rejected.Inc()
		s.writeErr(w, http.StatusServiceUnavailable, "draining", "model registry closed")
	case errors.Is(err, shard.ErrAllShardsFailed):
		// Every shard of a sharded model failed the scatter: nothing to
		// renormalize over, so the request cannot be served at all.
		s.met.failed.Inc()
		s.writeErr(w, http.StatusServiceUnavailable, "shards_failed", err.Error())
	default:
		s.met.failed.Inc()
		s.writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// estimateRequest is the wire form of POST /estimate.
type estimateRequest struct {
	Model string    `json:"model,omitempty"`
	Lo    []float64 `json:"lo"`
	Hi    []float64 `json:"hi"`
}

// estimateResponse is the wire form of a successful estimate. Degraded is
// set when a sharded model lost one or more shards during the scatter and
// the selectivity is the renormalized survivor estimate.
type estimateResponse struct {
	Model       string  `json:"model"`
	Selectivity float64 `json:"selectivity"`
	Degraded    bool    `json:"degraded,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.enter(w) {
		return
	}
	defer s.exit()
	var req estimateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", "bad estimate body: "+err.Error())
		return
	}
	key, err := s.modelKey(req.Model)
	if err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	defer cancel()
	release, ok := s.admit(ctx, w, start)
	if !ok {
		return
	}
	defer release()
	if d := s.faults.FireDelay(fault.ServeDelay); d > 0 {
		serviceDelay(ctx, d)
	}
	sel, degraded, err := s.reg.EstimateContextDetail(ctx, key, query.NewRange(req.Lo, req.Hi))
	if err != nil {
		s.writeModelErr(w, err)
		return
	}
	s.met.accepted.Inc()
	s.met.reqSec.ObserveDuration(time.Since(start))
	writeJSON(w, http.StatusOK, estimateResponse{Model: key.String(), Selectivity: sel, Degraded: degraded})
}

// feedbackRequest is the wire form of POST /feedback. Feedback is NOT
// idempotent — each delivery is one learning observation — so the protocol
// contract is that clients never retry it (httpclient enforces this).
type feedbackRequest struct {
	Model  string    `json:"model,omitempty"`
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	Actual float64   `json:"actual"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.exit()
	var req feedbackRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", "bad feedback body: "+err.Error())
		return
	}
	key, err := s.modelKey(req.Model)
	if err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := s.reg.Feedback(key, query.NewRange(req.Lo, req.Hi), req.Actual); err != nil {
		s.writeModelErr(w, err)
		return
	}
	s.met.accepted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// ingestRequest is the wire form of POST /ingest: rows to append and/or a
// region to delete, applied to the model's backing table through its change
// feed. The first ingest for a model attaches a default ingestion bridge
// (registry.AttachIngest), so writes are batched under the model's writer
// lock and never race serving. A full ingest ring blocks the handler —
// backpressure propagates to the writing client rather than growing
// unbounded maintenance lag.
type ingestRequest struct {
	Model string      `json:"model,omitempty"`
	Rows  [][]float64 `json:"rows,omitempty"`
	// DeleteLo/DeleteHi, when both present, delete every row inside the
	// closed box they bound.
	DeleteLo []float64 `json:"delete_lo,omitempty"`
	DeleteHi []float64 `json:"delete_hi,omitempty"`
}

// ingestResponse reports what was applied to the table plus the bridge's
// current lag, so writers can self-throttle before hitting backpressure.
type ingestResponse struct {
	Model    string `json:"model"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Lag      int    `json:"lag"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.exit()
	var req ingestRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", "bad ingest body: "+err.Error())
		return
	}
	key, err := s.modelKey(req.Model)
	if err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	wantDelete := len(req.DeleteLo) > 0 || len(req.DeleteHi) > 0
	if len(req.Rows) == 0 && !wantDelete {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", "ingest body carries no rows and no delete region")
		return
	}
	tab := s.reg.Table(key)
	if tab == nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusNotFound, "unknown_model", registry.ErrUnknownModel.Error()+": "+key.String())
		return
	}
	for i, row := range req.Rows {
		if len(row) != tab.Dims() {
			s.met.failed.Inc()
			s.writeErr(w, http.StatusBadRequest, "invalid_row",
				fmt.Sprintf("row %d has %d values, model has %d dimensions", i, len(row), tab.Dims()))
			return
		}
	}
	resp := ingestResponse{Model: key.String()}
	if len(req.Rows) > 0 {
		if err := s.reg.IngestRows(key, req.Rows); err != nil {
			s.writeModelErr(w, err)
			return
		}
		resp.Inserted = len(req.Rows)
	}
	if wantDelete {
		n, err := s.reg.IngestDeleteWhere(key, query.NewRange(req.DeleteLo, req.DeleteHi))
		if err != nil {
			if errors.Is(err, core.ErrInvalidQuery) || len(req.DeleteLo) != tab.Dims() || len(req.DeleteHi) != tab.Dims() {
				s.met.failed.Inc()
				s.writeErr(w, http.StatusBadRequest, "invalid_query", "bad delete region: "+err.Error())
				return
			}
			s.writeModelErr(w, err)
			return
		}
		resp.Deleted = n
	}
	resp.Lag = s.reg.IngestLag(key)
	s.met.accepted.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// analyzeRequest is the wire form of POST /analyze: a feedback batch to
// re-optimize over. With sync=1 the call blocks through ANALYZE; otherwise
// it enqueues on the registry's background worker and answers 202.
type analyzeRequest struct {
	Model    string            `json:"model,omitempty"`
	Feedback []feedbackElement `json:"feedback"`
}

type feedbackElement struct {
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	Actual float64   `json:"actual"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.exit()
	var req analyzeRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", "bad analyze body: "+err.Error())
		return
	}
	key, err := s.modelKey(req.Model)
	if err != nil {
		s.met.failed.Inc()
		s.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	fbs := make([]query.Feedback, len(req.Feedback))
	for i, f := range req.Feedback {
		fbs[i] = query.Feedback{Query: query.NewRange(f.Lo, f.Hi), Actual: f.Actual}
	}
	if r.URL.Query().Get("sync") == "1" {
		if err := s.reg.Analyze(key, fbs); err != nil {
			s.writeModelErr(w, err)
			return
		}
		s.met.accepted.Inc()
		writeJSON(w, http.StatusOK, map[string]any{"model": key.String(), "analyzed": true})
		return
	}
	if err := s.reg.ScheduleAnalyze(key, fbs); err != nil {
		if errors.Is(err, registry.ErrAnalyzeQueueFull) {
			s.met.shed.Inc()
			s.writeErr(w, http.StatusTooManyRequests, "shed", "analyze queue full")
			return
		}
		s.writeModelErr(w, err)
		return
	}
	s.met.accepted.Inc()
	writeJSON(w, http.StatusAccepted, map[string]any{"model": key.String(), "queued": true})
}

// handleHealthz is the liveness probe: the process is up and the handler
// runs. It stays 200 through a drain (the process is alive; it is just not
// ready), matching the usual liveness/readiness split.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// readyzModel is one model's row in the readiness body.
type readyzModel struct {
	Model     string `json:"model"`
	Resident  bool   `json:"resident"`
	Health    string `json:"health,omitempty"`
	Queries   int    `json:"queries,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Ingesting bool   `json:"ingesting,omitempty"`
	// IngestLag is the model's buffered-but-unapplied change-feed
	// mutation count; at or above Config.IngestLagDegraded it degrades
	// readiness.
	IngestLag int `json:"ingest_lag,omitempty"`
}

// handleReadyz is the readiness probe, backed by the core degradation
// ladder: 503 while draining, otherwise 200 with status "ok" when every
// resident model is Healthy and "degraded" when any has fallen down the
// ladder (degraded models still serve — degradation is exactly the
// mechanism that keeps them serving — so they do not fail readiness).
// Health reads are lock-free, so readyz answers during a long ANALYZE.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sts := s.reg.Status()
	models := make([]readyzModel, len(sts))
	status := "ok"
	lagDeg := s.cfg.ingestLagDegraded()
	for i, st := range sts {
		m := readyzModel{
			Model: st.Key.String(), Resident: st.Resident, Shards: st.Shards,
			Ingesting: st.Ingesting, IngestLag: st.IngestLag,
		}
		if st.Resident {
			m.Health = st.Health.String()
			m.Queries = st.Queries
			if st.Health != core.Healthy {
				status = "degraded"
			}
		}
		// The ingestion rung of the ladder: a model whose applier cannot
		// keep up with its change feed serves increasingly stale snapshots,
		// which is degradation, not failure.
		if st.Ingesting && lagDeg > 0 && st.IngestLag >= lagDeg {
			status = "degraded"
		}
		models[i] = m
	}
	body := map[string]any{"status": status, "models": models}
	if s.draining.Load() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the shared metrics registry snapshot (stable JSON,
// see internal/metrics). With no registry configured it answers an empty
// object rather than 404, so scrapers need no special case.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.met.reg == nil {
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	writeJSON(w, http.StatusOK, s.met.reg.Snapshot())
}

// handleModels lists every admitted model and its serving state.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	sts := s.reg.Status()
	models := make([]readyzModel, len(sts))
	for i, st := range sts {
		models[i] = readyzModel{Model: st.Key.String(), Resident: st.Resident, Shards: st.Shards}
		if st.Resident {
			models[i].Health = st.Health.String()
			models[i].Queries = st.Queries
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}
