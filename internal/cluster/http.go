package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/smt"
	"repro/internal/wal"
)

// Wire types of the coordinator's HTTP plane. Everything here is
// coordination metadata plus packed records and contexts (wire.go; base64
// strings in these JSON envelopes); the verdict-bearing records are
// re-certified on arrival, so the transport carries no trusted state.

type claimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse hands a worker one leased shard: the contexts to solve
// (packContexts form), the content hash of the decoded contexts to report
// under, and the lease to heartbeat.
type ClaimResponse struct {
	Job      string `json:"job"`
	Shard    int    `json:"shard"`
	Base     int    `json:"base"`
	Attempt  int    `json:"attempt"`
	Contexts []byte `json:"contexts"`
	Hash     string `json:"hash"`
	Lease    string `json:"lease"`
	TTLMS    int64  `json:"ttl_ms"`
}

type heartbeatRequest struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Lease string `json:"lease"`
}

// resultRequest reports one solved shard (Records in packRecords form) and,
// when More is set, claims the worker's next one in the same round trip; a
// stopping worker leaves it false so no lease is issued to nobody.
type resultRequest struct {
	Job     string `json:"job"`
	Shard   int    `json:"shard"`
	Hash    string `json:"hash"`
	Lease   string `json:"lease"`
	Worker  string `json:"worker"`
	Records []byte `json:"records"`
	More    bool   `json:"more,omitempty"`
}

// PayloadResponse describes a job to a worker: the payload to resolve and
// the alphabet fingerprint the worker must reproduce before trusting any
// guard-index context from this coordinator.
type PayloadResponse struct {
	Job       string     `json:"job"`
	Payload   JobPayload `json:"payload"`
	Alphabet  []string   `json:"alphabet"`
	Shards    int        `json:"shards"`
	Contexts  int        `json:"contexts"`
	Truncated bool       `json:"truncated"`
}

// JobStatus is the poll surface for submitters and smoke tests.
type JobStatus struct {
	Job             string `json:"job"`
	Model           string `json:"model"`
	Query           string `json:"query"`
	Done            bool   `json:"done"`
	Error           string `json:"error,omitempty"`
	ShardsTotal     int    `json:"shards_total"`
	ShardsDone      int    `json:"shards_done"`
	ShardsCancelled int    `json:"shards_cancelled"`
	Reissues        int    `json:"reissues"`

	Outcome string    `json:"outcome,omitempty"`
	Schemas int       `json:"schemas,omitempty"`
	AvgLen  float64   `json:"avg_len,omitempty"`
	Solver  smt.Stats `json:"solver,omitempty"`
	CEText  string    `json:"ce_text,omitempty"`
}

var (
	errNoJob        = errors.New("unknown job")
	errNoShard      = errors.New("unknown shard")
	errHashMismatch = errors.New("shard content hash mismatch")
	errBadRecords   = errors.New("malformed shard records")
	// errRecordTooLarge refuses a report the journal could not hold: it is
	// not integrated, so memory never runs ahead of what a restart replays.
	errRecordTooLarge = fmt.Errorf("shard report exceeds the journal's %d-byte record limit", wal.MaxRecord)
)

// maxBody caps every request body, like the service handlers' limit.
const maxBody = 1 << 22

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

// Handler mounts the cluster coordination API:
//
//	POST /v1/cluster/jobs        submit a payload (idempotent), returns {"job": id}
//	GET  /v1/cluster/jobs/{id}          job status and, once done, the verdict
//	GET  /v1/cluster/jobs/{id}/payload  payload + alphabet fingerprint
//	POST /v1/cluster/claim       claim a shard (200) or nothing to do (204):
//	                             the first lease, and polling
//	POST /v1/cluster/heartbeat   extend a lease (200) or learn it is gone (410)
//	POST /v1/cluster/result      report a solved shard's records and, with
//	                             "more", claim the next: 200 + the lease, or 204
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/cluster/jobs/{id}/payload", c.handlePayload)
	mux.HandleFunc("POST /v1/cluster/claim", c.handleClaim)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/result", c.handleResult)
	return mux
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var p JobPayload
	if !decodeBody(w, r, &p) {
		return
	}
	id, err := c.Submit(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job": id})
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "claim names no worker")
		return
	}
	writeLease(w, c.claim(req.Worker))
}

// writeLease answers a claim, stand-alone or riding on a report.
func writeLease(w http.ResponseWriter, resp *ClaimResponse) {
	if resp == nil {
		// Nothing claimable right now (all leased, backing off, or no jobs).
		// The shared client treats 204 as success, so workers sleep out their
		// own poll interval rather than burn the retry budget; Retry-After is
		// a hint for other clients (Worker does not read it).
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if c.heartbeat(req.Job, req.Lease, req.Shard) {
		w.WriteHeader(http.StatusOK)
		return
	}
	writeError(w, http.StatusGone, "lease %s on job %s shard %d is gone", req.Lease, req.Job, req.Shard)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.More && req.Worker == "" {
		writeError(w, http.StatusBadRequest, "claim names no worker")
		return
	}
	obsReportBytes.Add(int64(len(req.Records)))
	switch next, err := c.report(&req); {
	case err == nil:
		writeLease(w, next)
	case errors.Is(err, errNoJob) || errors.Is(err, errNoShard):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, errHashMismatch):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, errRecordTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (c *Coordinator) handlePayload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, PayloadResponse{
		Job: j.id, Payload: j.payload,
		Alphabet: j.plan.AlphabetKeys(),
		Shards:   len(j.shards), Contexts: len(j.ctxs), Truncated: j.truncated,
	})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.StatusOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
