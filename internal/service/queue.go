// The durable ingestion plane: POST /v1/enqueue accepts verification jobs
// into the WAL-backed internal/queue instead of shedding overload with 429.
// The synchronous path is still the fast path — a request whose every
// property is already in the vcache is answered inline, and when the queue
// directory is unusable (unwritable disk, full volume) the whole plane
// degrades to the PR-5 synchronous admission path rather than dying.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/queue"
)

// EnqueueRequest is the POST /v1/enqueue payload: a VerifyRequest plus queue
// addressing. Jobs are content-addressed over (tenant, canonical payload
// JSON), so identical submissions collapse; Tag makes otherwise-identical
// requests distinct, and Force skips the pre-enqueue cache short-circuit
// (the queued run itself still reuses the cache).
type EnqueueRequest struct {
	VerifyRequest
	Tenant string `json:"tenant,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Force  bool   `json:"force,omitempty"`
}

// EnqueueResponse answers /v1/enqueue and /v1/queue/jobs/{id}.
type EnqueueResponse struct {
	ID    string `json:"id,omitempty"`
	State string `json:"state"`
	// Duplicate marks an enqueue that collapsed onto an existing job.
	Duplicate bool `json:"duplicate,omitempty"`
	// Degraded carries the reason when the queue is unavailable and the
	// request was served through the synchronous fallback path instead.
	Degraded string `json:"degraded,omitempty"`
	// Reason is the dead-letter failure reason for state "dead".
	Reason string `json:"reason,omitempty"`
	// Results is set when the job's verdicts are available (state "done").
	Results *VerifyResponse `json:"results,omitempty"`
}

// queueStatusBody answers /v1/queue/status.
type queueStatusBody struct {
	Enabled   bool         `json:"enabled"`
	Degraded  string       `json:"degraded,omitempty"`
	Consumers int          `json:"consumers,omitempty"`
	Queue     queue.Status `json:"queue"`
}

// openQueue wires the durable queue under the server, or records why it
// could not and leaves the synchronous path as the fallback.
func (s *Server) openQueue() {
	if s.cfg.QueueDir == "" {
		return
	}
	consumers := s.cfg.QueueConsumers
	if consumers == 0 {
		consumers = 2
	}
	q, err := queue.Open(queue.Config{
		Dir:           s.cfg.QueueDir,
		Consumers:     consumers,
		MaxAttempts:   s.cfg.QueueMaxAttempts,
		MaxDepth:      s.cfg.QueueMaxDepth,
		TenantDepth:   s.cfg.QueueTenantDepth,
		TenantWeights: s.cfg.QueueTenantWeights,
		Seed:          s.cfg.QueueSeed,
		Handler:       s.runQueueJob,
		OnTerminal:    s.cfg.QueueOnTerminal,
		Logf:          s.cfg.Logf,
	})
	if err != nil {
		s.queueErr = err
		s.cfg.Logf("service: queue disabled, degrading to the synchronous path: %v", err)
		return
	}
	s.queue = q
	s.queueConsumers = consumers
	s.cfg.Logf("service: durable queue at %s (%d consumers, depth %d)", s.cfg.QueueDir, consumers, q.Status().Depth)
}

// Queue exposes the underlying queue (nil when disabled or degraded) to
// in-process drivers that resume, watch or wait on it directly.
func (s *Server) Queue() *queue.Queue { return s.queue }

// Close releases the server's durable state: the queue drains its running
// jobs, journals their outcomes and compacts. Safe to call when the queue is
// disabled, and idempotent.
func (s *Server) Close() error {
	if s.queue == nil {
		return nil
	}
	return s.queue.Close()
}

// runQueueJob is the queue consumer handler: decode the stored enqueue
// request and run it through the same verify path the synchronous endpoint
// uses (cache, singleflight, semaphore, report rows — so a drained daemon's
// deterministic report is byte-identical whether jobs arrived queued or
// synchronous). Error classification is the queue's contract: undecodable
// payloads and 400-class requests are Permanent (poison — retrying cannot
// fix the input), a drain-interrupted run is ErrRequeue (no attempt burned,
// no partial verdict terminalized), everything else is transient.
func (s *Server) runQueueJob(ctx context.Context, j queue.Job) error {
	var req EnqueueRequest
	if err := json.Unmarshal(j.Payload, &req); err != nil {
		return queue.Permanent(fmt.Errorf("undecodable job payload: %w", err))
	}
	if fp := s.cfg.QueueFailProp; fp != "" && req.Prop == fp {
		// Documented fault-injection hook (serve -queue-fail-prop): the
		// verify.sh smoke leg uses it to drive a real job into the
		// dead-letter log without needing a genuinely broken spec.
		return fmt.Errorf("fault injection: configured to fail prop %q", fp)
	}
	if s.cfg.Stop() {
		return queue.ErrRequeue
	}
	resp, status, err := s.verify(ctx, &req.VerifyRequest)
	if err != nil {
		if status == http.StatusBadRequest {
			return queue.Permanent(err)
		}
		return err
	}
	if s.cfg.Stop() {
		// A drain that fired mid-run cut the engine off via the Stop hook;
		// the budget rows it produced are not this job's real verdict.
		return queue.ErrRequeue
	}
	s.storeQueueResult(j.ID, resp)
	return nil
}

// storeQueueResult keeps completed job responses in a bounded ring so
// /v1/queue/jobs/{id} can serve verdicts without re-verifying; evicted
// entries cost a follower a cache-backed re-run, not a recompute.
func (s *Server) storeQueueResult(id string, resp *VerifyResponse) {
	const keep = 4096
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if _, ok := s.qresults[id]; ok {
		s.qresults[id] = resp
		return
	}
	if len(s.qring) < keep {
		s.qring = append(s.qring, id)
	} else {
		delete(s.qresults, s.qring[s.qnext])
		s.qring[s.qnext] = id
		s.qnext = (s.qnext + 1) % keep
	}
	s.qresults[id] = resp
}

func (s *Server) queueResult(id string) (*VerifyResponse, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	resp, ok := s.qresults[id]
	return resp, ok
}

// allCached reports whether every query of a prepared request already has a
// cached verdict — the pre-enqueue dedup against vcache canonical hashes:
// such a request is answered synchronously (pure cache reads) instead of
// occupying backlog space.
func (s *Server) allCached(p *prepared) bool {
	if s.cfg.Cache == nil {
		return false
	}
	for _, key := range p.keys {
		if _, ok := s.cfg.Cache.Get(key); !ok {
			return false
		}
	}
	return true
}

// serveSyncFallback runs an enqueue request through the synchronous
// admission path — the graceful-degradation route when the queue is broken
// or disabled. The PR-5 contract applies: bounded admission, 429 beyond it.
func (s *Server) serveSyncFallback(w http.ResponseWriter, p *prepared, reason string) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.serveRun(w, p, reason)
}

// serveRun answers an enqueue request inline from a synchronous run.
func (s *Server) serveRun(w http.ResponseWriter, p *prepared, degraded string) {
	resp, err := s.run(p)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EnqueueResponse{State: "done", Degraded: degraded, Results: resp})
}

func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if s.cfg.Stop() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req EnqueueRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	// Resolved and keyed once: the same prepared request serves the
	// all-cached probe and whichever synchronous path answers inline.
	p, err := s.prepare(r.Context(), &req.VerifyRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer p.cancel()
	if !req.Force && s.allCached(p) {
		// Every verdict is already content-addressed in the cache: answer
		// now, spend no backlog.
		s.serveRun(w, p, "")
		return
	}
	if s.queue == nil {
		reason := "queue disabled"
		if s.queueErr != nil {
			reason = fmt.Sprintf("queue unavailable: %v", s.queueErr)
		}
		s.serveSyncFallback(w, p, reason)
		return
	}

	payload, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "encoding job payload: %v", err)
		return
	}
	id, st, dup, err := s.queue.Enqueue(req.Tenant, payload)
	switch {
	case err == nil:
	case errors.Is(err, queue.ErrQueueFull), errors.Is(err, queue.ErrTenantFull):
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	default:
		// The durable plane failed mid-life (killed, closed, broken disk):
		// degrade to the synchronous path rather than losing the request.
		s.serveSyncFallback(w, p, fmt.Sprintf("queue unavailable: %v", err))
		return
	}
	out := EnqueueResponse{ID: id, State: st.String(), Duplicate: dup}
	code := http.StatusAccepted
	if st == queue.StateDone {
		code = http.StatusOK
		if resp, ok := s.queueResult(id); ok {
			out.Results = resp
		}
	}
	writeJSON(w, code, out)
}

func (s *Server) handleQueueStatus(w http.ResponseWriter, r *http.Request) {
	body := queueStatusBody{Enabled: s.queue != nil, Consumers: s.queueConsumers}
	if s.queueErr != nil {
		body.Degraded = s.queueErr.Error()
	}
	if s.queue != nil {
		body.Queue = s.queue.Status()
		if body.Queue.Broken != "" {
			body.Degraded = body.Queue.Broken
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleQueueJob(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeError(w, http.StatusNotFound, "queue disabled")
		return
	}
	id := r.PathValue("id")
	st, ok := s.queue.JobState(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no queue job %q", id)
		return
	}
	out := EnqueueResponse{ID: id, State: st.String()}
	switch st {
	case queue.StateDone:
		if resp, ok := s.queueResult(id); ok {
			out.Results = resp
		}
	case queue.StateDead:
		for _, dl := range s.queue.DeadLetters() {
			if dl.ID == id {
				out.Reason = dl.Reason
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// deadLetterBody renders one quarantined job; the payload is the original
// enqueue request JSON, embedded verbatim for forensics.
type deadLetterBody struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant"`
	Reason   string          `json:"reason"`
	Attempts int             `json:"attempts"`
	Request  json.RawMessage `json:"request,omitempty"`
}

func (s *Server) handleQueueDead(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeError(w, http.StatusNotFound, "queue disabled")
		return
	}
	dls := s.queue.DeadLetters()
	out := struct {
		Dead []deadLetterBody `json:"dead"`
	}{Dead: []deadLetterBody{}}
	for _, dl := range dls {
		out.Dead = append(out.Dead, deadLetterBody{
			ID: dl.ID, Tenant: dl.Tenant, Reason: dl.Reason, Attempts: dl.Attempts,
			Request: json.RawMessage(dl.Payload),
		})
	}
	writeJSON(w, http.StatusOK, out)
}
