// Package service is the HTTP serving plane of the verification stack: it
// turns the batch checker into a daemon (`holistic serve`) that answers
// spec-verification requests over a loopback or LAN socket, backed by the
// content-addressed result cache of internal/vcache.
//
// The request path is: admission (bounded queue, load-shedding with 429 +
// Retry-After beyond it) → the request's resolution, looked up in a bounded
// per-server memo or built once (Resolve, the engine's one-round automaton,
// the per-query cache keys) → cache lookup (internal/core.Lookup) →
// singleflight dedup (concurrent identical requests share one engine run) →
// engine run under a concurrency semaphore, on an automaton and engine
// built for that run, with the per-request deadline mapped onto the engine's
// cooperative Stop/Timeout hooks. A warm hit therefore reads the memo and
// the cache and nothing else. Responses carry exactly the deterministic
// fields of the obs report schema, so a remote verification's report is
// byte-identical to a local one's.
//
// Endpoints:
//
//	POST /v1/verify            synchronous verify; body: VerifyRequest JSON
//	POST /v1/enqueue           durable queue submit (EnqueueRequest JSON)
//	GET  /v1/queue/status      queue depth/in-flight/dead-letter counters
//	GET  /v1/queue/jobs/{id}   queue job state (+ results when done)
//	GET  /v1/queue/dead        recent dead-lettered jobs with reasons
//	GET  /healthz              liveness + drain state
//	GET  /metricsz             obs registry snapshot (JSON)
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// Metrics (observational).
var (
	mRequests   = obs.Default.Counter("service", "requests")
	mShed       = obs.Default.Counter("service", "shed")
	mEngineRuns = obs.Default.Counter("service", "engine_runs")
	mDedup      = obs.Default.Counter("service", "singleflight_shared")
	mQueueDepth = obs.Default.Gauge("service", "queue_depth")
	mRequestNS  = obs.Default.Histogram("service", "request_ns")
	mCheckNS    = obs.Default.Histogram("service", "check_ns")
	// Resolution memo fills and hits (see Server.resolve).
	mResolutions    = obs.Default.Counter("service", "resolutions")
	mResolutionHits = obs.Default.Counter("service", "resolution_hits")
)

// Config tunes the server.
type Config struct {
	// Cache backs verdict reuse (nil = every request solves from scratch).
	Cache *vcache.Cache
	// Workers is the schema-enumeration worker budget per engine run
	// (0 = sequential). Verdicts are deterministic at any value.
	Workers int
	// MaxQueue bounds admitted-but-unfinished requests; beyond it requests
	// are shed with 429 + Retry-After (default 64).
	MaxQueue int
	// MaxConcurrent bounds engine runs in flight (default 2): verification
	// is CPU-bound, so admitted requests queue on this semaphore.
	MaxConcurrent int
	// RequestTimeout caps one request's verification wall clock (0 = none);
	// a client-supplied timeout_ms may tighten but never extend it.
	RequestTimeout time.Duration
	// Stop, when set, marks the process as draining: new requests are
	// rejected with 503 while in-flight ones finish (SIGTERM wiring).
	Stop func() bool
	// Logf receives one line per notable event (default: silent).
	Logf func(format string, args ...any)

	// QueueDir, when set, enables the durable ingestion plane: POST
	// /v1/enqueue journals jobs into a WAL-backed internal/queue under this
	// directory and a consumer pool drains them through the verify path. An
	// unusable directory degrades to the synchronous path instead of
	// failing startup.
	QueueDir string
	// QueueConsumers sizes the consumer pool (default 2).
	QueueConsumers int
	// QueueMaxDepth / QueueTenantDepth / QueueTenantWeights /
	// QueueMaxAttempts / QueueSeed pass through to queue.Config.
	QueueMaxDepth      int
	QueueTenantDepth   int
	QueueTenantWeights map[string]int
	QueueMaxAttempts   int
	QueueSeed          int64
	// QueueFailProp, when non-empty, makes queue jobs for that property fail
	// as transient errors — the documented fault-injection hook behind
	// `serve -queue-fail-prop`, used by the dead-letter smoke test.
	QueueFailProp string
	// QueueOnTerminal observes terminal queue transitions (benchmarks).
	QueueOnTerminal func(j queue.Job, st queue.State)
}

// VerifyRequest is the POST /v1/verify payload (and the body of an
// EnqueueRequest). Exactly one of Model (bundled) and TA (textual automaton,
// with Spec holding the LTL property file) must be set.
type VerifyRequest struct {
	Model string `json:"model,omitempty"`
	TA    string `json:"ta,omitempty"`
	Spec  string `json:"spec,omitempty"`
	// Prop restricts the check to one named property (default: all).
	Prop string `json:"prop,omitempty"`
	// Mode is "staged" (default) or "full".
	Mode string `json:"mode,omitempty"`
	// TimeoutMS bounds each property check; capped by the server's
	// RequestTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResult is one property verdict. The embedded deterministic row
// (model, query, mode, outcome, schemas, avg_len, solver) is exactly the obs
// report row — budget rows arrive with volatile fields zeroed — so clients
// can reconstruct a report whose deterministic section is byte-identical to
// a local run's.
type QueryResult struct {
	obs.QueryMetrics
	// Cached marks a verdict served from the result cache; Shared marks one
	// that joined a concurrent identical run. Observational.
	Cached bool `json:"cached,omitempty"`
	Shared bool `json:"shared,omitempty"`
	// ElapsedNS is this server's wall clock for the check. Observational.
	ElapsedNS int64 `json:"elapsed_ns"`
	// CEText is the formatted counterexample when Outcome == "violated".
	CEText string `json:"ce_text,omitempty"`
}

// VerifyResponse is the /v1/verify response body.
type VerifyResponse struct {
	Engine    string        `json:"engine_version"`
	Results   []QueryResult `json:"results"`
	ElapsedNS int64         `json:"elapsed_ns"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// Server handles the verification endpoints. Create with New, mount via
// Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	group *flightGroup

	admitted atomic.Int64
	started  time.Time

	// engineRuns counts real engine invocations (not cache hits, not
	// singleflight followers); the race test pins it to exactly one for N
	// concurrent identical requests.
	engineRuns atomic.Int64

	// reportMu guards the deterministic rows accumulated for the drain-time
	// obs report: one row per unique verification key served, in insertion
	// order replaced by sorted order at flush.
	reportMu   sync.Mutex
	reportRows map[string]obs.QueryMetrics

	// memo holds at most memoCap resolutions by memoKey (see resolve).
	memoMu sync.RWMutex
	memo   map[[sha256.Size]byte]*resolution

	// queue is the durable ingestion plane (nil = disabled or degraded;
	// queueErr records why). qresults is the bounded ring of completed
	// queue-job responses.
	queue          *queue.Queue
	queueErr       error
	queueConsumers int
	qmu            sync.Mutex
	qresults       map[string]*VerifyResponse
	qring          []string
	qnext          int
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Stop == nil {
		cfg.Stop = func() bool { return false }
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		group:      newFlightGroup(),
		started:    time.Now(),
		reportRows: make(map[string]obs.QueryMetrics),
		memo:       make(map[[sha256.Size]byte]*resolution),
		qresults:   make(map[string]*VerifyResponse),
	}
	s.openQueue()
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/enqueue", s.handleEnqueue)
	s.mux.HandleFunc("GET /v1/queue/status", s.handleQueueStatus)
	s.mux.HandleFunc("GET /v1/queue/jobs/{id}", s.handleQueueJob)
	s.mux.HandleFunc("GET /v1/queue/dead", s.handleQueueDead)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// EngineRuns reports the number of real engine invocations so far.
func (s *Server) EngineRuns() int64 { return s.engineRuns.Load() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Unreachable for the plain structs served here.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// admit reserves an admission slot, shedding with 429 beyond MaxQueue and
// refusing with 503 while draining. The returned release func must be
// called exactly once; ok=false means the response has been written.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.cfg.Stop() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	depth := s.admitted.Add(1)
	mQueueDepth.Set(depth)
	if depth > int64(s.cfg.MaxQueue) {
		s.admitted.Add(-1)
		mQueueDepth.Set(s.admitted.Load())
		mShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d in flight); retry later", s.cfg.MaxQueue)
		return nil, false
	}
	return func() {
		mQueueDepth.Set(s.admitted.Add(-1))
	}, true
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (*VerifyRequest, bool) {
	var req VerifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return nil, false
	}
	return &req, true
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	resp, status, err := s.verify(r.Context(), req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// memoCap bounds a server's resolution memo, like vcache's in-memory
// default bounds its entries.
const memoCap = 256

// resolution is a request resolved and keyed once. It is a pure function of
// (model | ta+spec, prop, mode) and the binary, so a server keeps it in its
// memo and every later identical request shares it read-only. Nothing in it
// is handed to a solve: a miss builds its own automaton and engine.
type resolution struct {
	label   string
	mode    schema.Mode
	queries []spec.Query
	// ta is the engine's one-round automaton, the one the keys were derived
	// from and a cached counterexample is re-certified against.
	ta *ta.TA
	// keys[i] is the cache/singleflight content address of queries[i].
	keys []string
}

// prepared is one request on its way through the server: its shared
// resolution — what the enqueue plane's all-cached probe, the cache fast
// path and the singleflight key work from — plus what is the request's own.
type prepared struct {
	*resolution
	// req is kept for the miss path, which builds its engine from it.
	req VerifyRequest
	// timeout is the effective deadline (the server's RequestTimeout,
	// tightened by the client's timeout_ms; 0 = none), and ctx the request
	// context under it; cancel releases ctx.
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
}

// prepare resolves a request (a failure is the caller's 400) and puts it
// under its deadline. The caller must call cancel.
func (s *Server) prepare(ctx context.Context, req *VerifyRequest) (*prepared, error) {
	r, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		t := time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout == 0 || t < timeout {
			timeout = t
		}
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	return &prepared{resolution: r, req: *req, timeout: timeout, ctx: ctx, cancel: cancel}, nil
}

// memoKey content-addresses the request fields a resolution depends on,
// each length-prefixed so no two requests collide by concatenation.
// TimeoutMS is left out: it changes neither the resolution nor the keys.
func memoKey(req *VerifyRequest) [sha256.Size]byte {
	var stack [256]byte
	buf := stack[:0]
	for _, f := range [...]string{req.Model, req.TA, req.Spec, req.Prop, req.Mode} {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	return sha256.Sum256(buf)
}

// resolve returns req's resolution from the memo, or builds and memoizes
// it. Errors are never stored, so a bad request is refused with the same
// 400 every time. A full memo drops an arbitrary entry (Go's map order) to
// make room.
func (s *Server) resolve(req *VerifyRequest) (*resolution, error) {
	k := memoKey(req)
	s.memoMu.RLock()
	r, ok := s.memo[k]
	s.memoMu.RUnlock()
	if ok {
		mResolutionHits.Inc()
		return r, nil
	}
	res, engine, err := s.build(req, 0, nil)
	if err != nil {
		return nil, err
	}
	r = &resolution{
		label:   res.Label,
		mode:    engine.Opts().Mode,
		queries: res.Queries,
		ta:      engine.TA(),
		keys:    vcache.Keys(engine.TA(), res.Queries, vcache.ConfigOf(engine.Opts()), vcache.EngineVersion),
	}
	s.memoMu.Lock()
	if _, dup := s.memo[k]; !dup && len(s.memo) >= memoCap {
		for victim := range s.memo {
			delete(s.memo, victim)
			break
		}
	}
	s.memo[k] = r
	s.memoMu.Unlock()
	mResolutions.Inc()
	return r, nil
}

// build is the one interpretation of a request into an automaton, queries
// and an engine (Resolve, then schema.New under the given deadline and stop
// hook). The memo fill keeps only what its engine derived; the miss path
// solves on its own, so no engine or automaton a solve touches is shared.
func (s *Server) build(req *VerifyRequest, timeout time.Duration, stop func() bool) (*Resolved, *schema.Engine, error) {
	r, err := Resolve(req)
	if err != nil {
		return nil, nil, err
	}
	engine, err := schema.New(r.TA, schema.Options{
		Mode:    r.Mode,
		Timeout: timeout,
		Stop:    stop,
		Workers: s.cfg.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return r, engine, nil
}

// stopHook maps the server's drain flag and ctx's deadline onto the
// engine's cooperative Stop hook.
func (s *Server) stopHook(ctx context.Context) func() bool {
	return func() bool {
		if s.cfg.Stop() {
			return true
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// verify runs one request end to end. It returns an HTTP status alongside
// any error so handlers map failures consistently.
func (s *Server) verify(ctx context.Context, req *VerifyRequest) (*VerifyResponse, int, error) {
	p, err := s.prepare(ctx, req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	defer p.cancel()
	resp, err := s.run(p)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return resp, http.StatusOK, nil
}

// run checks every query of a prepared request.
func (s *Server) run(p *prepared) (*VerifyResponse, error) {
	start := time.Now()
	defer func() { mRequestNS.Observe(time.Since(start).Nanoseconds()) }()
	resp := &VerifyResponse{Engine: vcache.EngineVersion}
	for i := range p.queries {
		qr, err := s.checkOne(p, i)
		if err != nil {
			return nil, fmt.Errorf("checking %s/%s: %w", p.label, p.queries[i].Name, err)
		}
		resp.Results = append(resp.Results, qr)
	}
	resp.ElapsedNS = time.Since(start).Nanoseconds()
	return resp, nil
}

// checkOne decides one property: cache first, then singleflight, then a real
// engine run under the concurrency semaphore.
func (s *Server) checkOne(p *prepared, i int) (QueryResult, error) {
	start := time.Now()
	q, key := &p.queries[i], p.keys[i]
	// An expired deadline — while queuing on the semaphore or while waiting
	// on another caller's run — surfaces as a budget outcome, exactly like
	// one that fires mid-solve via the Stop hook.
	budget := schema.Result{Query: q.Name, Mode: p.mode, Outcome: spec.Budget}

	// Fast path outside the singleflight: a warm hit never queues.
	res, cached := core.Lookup(s.cfg.Cache, p.ta, q, key)
	shared := false
	if !cached {
		var err error
		res, shared, err = s.group.do(p.ctx, key, budget, func() (schema.Result, error) {
			// The semaphore bounds concurrent engine runs.
			select {
			case s.sem <- struct{}{}:
			case <-p.ctx.Done():
				return budget, nil
			}
			defer func() { <-s.sem }()
			r, engine, err := s.build(&p.req, p.timeout, s.stopHook(p.ctx))
			if err != nil {
				return schema.Result{}, err
			}
			s.engineRuns.Add(1)
			mEngineRuns.Inc()
			return core.CheckAndFill(s.cfg.Cache, engine, &r.Queries[i], key)
		})
		if err != nil {
			return QueryResult{}, err
		}
		if shared {
			mDedup.Inc()
		}
	}
	elapsed := time.Since(start)
	mCheckNS.Observe(elapsed.Nanoseconds())

	qr := QueryResult{
		QueryMetrics: res.Row(p.label),
		Cached:       cached,
		Shared:       shared,
		ElapsedNS:    elapsed.Nanoseconds(),
	}
	if res.CE != nil {
		qr.CEText = res.CE.Format()
	}
	s.recordReportRow(key, qr.QueryMetrics)
	return qr, nil
}

// recordReportRow accumulates one deterministic report row per unique
// verification key, for the drain-time obs report.
func (s *Server) recordReportRow(key string, row obs.QueryMetrics) {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	if len(s.reportRows) >= 10_000 {
		// Unbounded daemons must not grow the report forever; the registry
		// snapshot still covers totals.
		return
	}
	s.reportRows[key] = row
}

// Report assembles the daemon's obs report: one deterministic row per unique
// verification served (sorted, so two servers that served the same set of
// keys flush byte-identical deterministic sections) plus the registry
// snapshot.
func (s *Server) Report(tool string, workers int, interrupted bool) *obs.Report {
	s.reportMu.Lock()
	keys := make([]string, 0, len(s.reportRows))
	for k := range s.reportRows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.reportRows[keys[i]], s.reportRows[keys[j]]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return keys[i] < keys[j]
	})
	rep := &obs.Report{Tool: tool}
	for _, k := range keys {
		rep.Deterministic.Queries = append(rep.Deterministic.Queries, s.reportRows[k])
	}
	s.reportMu.Unlock()
	rep.Observational.Workers = workers
	rep.Observational.Interrupted = interrupted
	rep.Observational.Registry = obs.Default.Snapshot()
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.cfg.Stop() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"engine_version": vcache.EngineVersion,
		"uptime_ms":      time.Since(s.started).Milliseconds(),
		"queue_depth":    s.admitted.Load(),
		"max_queue":      s.cfg.MaxQueue,
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Default.Snapshot())
}
