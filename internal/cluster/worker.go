package cluster

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
	"repro/internal/wal"
)

// Worker is one shard-solving daemon: claim, solve, heartbeat, report —
// and take the next lease off the report's response — repeat. It holds no
// durable state — a worker crash loses nothing but the lease, which the
// coordinator's sweeper reclaims. Solved shards are cached
// in memory by content hash behind a singleflight gate, so a reissued
// duplicate of a shard this worker already solved (or is solving) costs a
// lookup, not a re-solve; with CacheDir set the cache also persists, so even
// a restarted worker answers reissues of its old shards from disk.
type Worker struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names this worker in leases and journal records.
	ID string
	// Workers is the solver thread count per shard (default 1).
	Workers int
	// Client is the shared retrying HTTP client (default: RetryTransport on
	// — a worker must ride out a coordinator restart, not die with it).
	Client *service.HTTPClient
	// PollInterval is the fixed sleep between claim attempts when there is
	// no work or the claim failed (default 200ms). Nothing stretches it: the
	// coordinator's Retry-After header on a 204 is not read.
	PollInterval time.Duration
	// Stop ends the run loop at the next poll when it returns true.
	Stop func() bool
	// Logf receives progress lines (default: silent).
	Logf func(format string, args ...any)
	// CacheDir, when set, persists solved shards as CRC-framed files keyed
	// by shard content hash, so the cache survives worker restarts. Disk
	// failures degrade to the in-memory cache; a corrupt entry is deleted
	// and re-solved.
	CacheDir string

	mu   sync.Mutex
	jobs map[string]*workerJob
	// results holds each solved shard's packed records: the bytes that are
	// also its CacheDir entry and the body of its report.
	results map[string][]byte
	flight  map[string]chan struct{}

	// ShardsSolved counts shards this worker solved (not cache hits); the
	// torture harness uses it to prove work actually distributed.
	ShardsSolved atomic.Int64
}

// workerJob caches one job's resolved plan.
type workerJob struct {
	a    *ta.TA
	q    *spec.Query
	plan *schema.FullPlan
	// guards is the alphabet size: no context is longer.
	guards int
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *service.HTTPClient {
	if w.Client == nil {
		w.Client = &service.HTTPClient{RetryTransport: true, Logf: w.Logf}
	}
	return w.Client
}

func (w *Worker) poll() time.Duration {
	if w.PollInterval > 0 {
		return w.PollInterval
	}
	return 200 * time.Millisecond
}

func (w *Worker) stopping(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	return w.Stop != nil && w.Stop()
}

// Run claims and solves shards until the context ends or Stop trips.
// Transport failures never kill the loop: the claim just retries on the poll
// cadence, which is what lets a worker outlive coordinator restarts and
// network partitions.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		w.ID = fmt.Sprintf("worker-%d", time.Now().UnixNano())
	}
	w.mu.Lock()
	if w.jobs == nil {
		w.jobs = make(map[string]*workerJob)
		w.results = make(map[string][]byte)
		w.flight = make(map[string]chan struct{})
	}
	w.mu.Unlock()
	if w.CacheDir != "" {
		if err := os.MkdirAll(w.CacheDir, 0o755); err != nil {
			w.logf("work %s: shard cache at %s unavailable (%v); running memory-only", w.ID, w.CacheDir, err)
			w.CacheDir = ""
		}
	}
	// cr is the lease in hand: the last report's response carried it, or —
	// for the first shard, after an idle spell or a failure — a claim does.
	var cr *ClaimResponse
	for {
		if w.stopping(ctx) {
			return ctx.Err()
		}
		if cr == nil {
			var claimed ClaimResponse
			status, err := w.client().PostJSON(ctx, w.Coordinator+"/v1/cluster/claim", claimRequest{Worker: w.ID}, &claimed)
			switch {
			case ctx.Err() != nil:
				return ctx.Err()
			case err != nil:
				w.logf("work %s: claim failed (%v); repolling", w.ID, err)
				fallthrough
			case status == http.StatusNoContent:
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(w.poll()):
				}
				continue
			}
			cr = &claimed
		}
		next, err := w.solveShard(ctx, cr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Abandoning the shard is always safe: the lease expires and the
			// coordinator reissues it.
			w.logf("work %s: job %s shard %d abandoned: %v", w.ID, cr.Job, cr.Shard, err)
		}
		cr = next
	}
}

// jobFor resolves (once) the plan for a job, validating that this worker's
// analysis reproduces the coordinator's guard alphabet — a mismatched
// fingerprint means the two binaries would disagree on what every context
// index denotes, and solving anything would be silent corruption.
func (w *Worker) jobFor(ctx context.Context, jobID string) (*workerJob, error) {
	w.mu.Lock()
	wj, ok := w.jobs[jobID]
	w.mu.Unlock()
	if ok {
		return wj, nil
	}
	var pr PayloadResponse
	if _, err := w.client().GetJSON(ctx, w.Coordinator+"/v1/cluster/jobs/"+jobID+"/payload", &pr); err != nil {
		return nil, fmt.Errorf("fetching payload: %w", err)
	}
	a, _, q, err := pr.Payload.Resolve()
	if err != nil {
		return nil, err
	}
	workers := w.Workers
	if workers < 1 {
		workers = 1
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration, Workers: workers})
	if err != nil {
		return nil, err
	}
	plan, err := eng.PlanFull(q)
	if err != nil {
		return nil, err
	}
	keys := plan.AlphabetKeys()
	if len(keys) != len(pr.Alphabet) {
		return nil, fmt.Errorf("alphabet fingerprint mismatch: %d guards here, %d at coordinator", len(keys), len(pr.Alphabet))
	}
	for i := range keys {
		if keys[i] != pr.Alphabet[i] {
			return nil, fmt.Errorf("alphabet fingerprint mismatch at %d: %q here, %q at coordinator", i, keys[i], pr.Alphabet[i])
		}
	}
	wj = &workerJob{a: eng.TA(), q: q, plan: plan, guards: len(keys)}
	w.mu.Lock()
	w.jobs[jobID] = wj
	w.mu.Unlock()
	return wj, nil
}

// solveShard runs one claimed shard end to end: validate, solve under a
// heartbeat, report by content hash. Unless the worker is stopping the
// report also asks for the next lease, which is returned when one came back.
func (w *Worker) solveShard(ctx context.Context, cr *ClaimResponse) (next *ClaimResponse, err error) {
	wj, err := w.jobFor(ctx, cr.Job)
	if err != nil {
		return nil, err
	}
	ctxs, err := unpackContexts(cr.Contexts, wj.guards)
	if err != nil {
		return nil, fmt.Errorf("claimed contexts: %w", err)
	}
	if got := shardHash(cr.Job, cr.Base, ctxs); got != cr.Hash {
		return nil, fmt.Errorf("shard content hashes to %s, claim says %s", got, cr.Hash)
	}
	if err := wj.plan.ValidContexts(ctxs); err != nil {
		return nil, err
	}

	packed, err := w.solveCached(ctx, wj, cr, ctxs)
	if err != nil || packed == nil {
		return nil, err
	}
	var lease ClaimResponse
	status, err := w.client().PostJSON(ctx, w.Coordinator+"/v1/cluster/result", &resultRequest{
		Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash,
		Lease: cr.Lease, Worker: w.ID, Records: packed,
		More: !w.stopping(ctx),
	}, &lease)
	if err != nil {
		return nil, fmt.Errorf("reporting (status %d): %w", status, err)
	}
	w.logf("work %s: job %s shard %d reported (%d records, %d bytes)", w.ID, cr.Job, cr.Shard, len(ctxs), len(packed))
	if status == http.StatusOK {
		next = &lease
	}
	return next, nil
}

// solveCached returns the shard's packed records from the content-addressed
// cache, joins an in-flight solve of the same hash, or solves. A nil, nil
// return means the solve was abandoned (lease lost or stop).
func (w *Worker) solveCached(ctx context.Context, wj *workerJob, cr *ClaimResponse, ctxs [][]int) ([]byte, error) {
	w.mu.Lock()
	if recs, ok := w.results[cr.Hash]; ok {
		w.mu.Unlock()
		return recs, nil
	}
	if recs, ok := w.diskLoad(cr.Hash, wj, len(ctxs)); ok {
		w.results[cr.Hash] = recs
		w.mu.Unlock()
		return recs, nil
	}
	if ch, ok := w.flight[cr.Hash]; ok {
		w.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		w.mu.Lock()
		recs := w.results[cr.Hash]
		w.mu.Unlock()
		return recs, nil // nil if the first flight abandoned; caller drops too
	}
	ch := make(chan struct{})
	w.flight[cr.Hash] = ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.flight, cr.Hash)
		w.mu.Unlock()
		close(ch)
	}()

	// Heartbeat at TTL/3 while solving. A Gone lease stops the solve: the
	// shard was reissued, cancelled, or completed elsewhere, so finishing it
	// here buys nothing. (A *partitioned* worker is different: heartbeats
	// fail at the transport, lost stays false, and the worker solves on and
	// reports late — the coordinator accepts the records by content hash.)
	var lost atomic.Bool
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	ttl := time.Duration(cr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				status, _ := w.client().PostJSON(hbCtx, w.Coordinator+"/v1/cluster/heartbeat", &heartbeatRequest{
					Job: cr.Job, Shard: cr.Shard, Lease: cr.Lease,
				}, nil)
				if status == http.StatusGone {
					lost.Store(true)
					return
				}
			}
		}
	}()

	workers := w.Workers
	if workers < 1 {
		workers = 1
	}
	stop := func() bool { return lost.Load() || w.stopping(ctx) }
	recs, interrupted, err := wj.plan.SolveRange(ctxs, cr.Base, workers, stop)
	if err != nil {
		return nil, fmt.Errorf("solving: %w", err)
	}
	if interrupted {
		if lost.Load() {
			w.logf("work %s: job %s shard %d lease gone; abandoning", w.ID, cr.Job, cr.Shard)
			return nil, nil
		}
		return nil, fmt.Errorf("solve interrupted")
	}
	packed := packRecords(wj.a, recs)
	w.mu.Lock()
	w.results[cr.Hash] = packed
	w.mu.Unlock()
	w.ShardsSolved.Add(1)
	w.diskStore(cr.Hash, packed)
	return packed, nil
}

func (w *Worker) shardPath(hash string) string {
	return filepath.Join(w.CacheDir, hash+".shard")
}

// diskLoad reads a persisted shard by content hash. The caller holds w.mu;
// the read is cheap and a worker restart is exactly when it pays off. The
// entry is trusted no further than a report would be: it must unpack against
// this job — counterexamples re-certified — into one record per context. Any
// damage (torn write, bit rot, wrong shape, an entry in an older format)
// deletes it and reports a miss — the shard is simply re-solved.
func (w *Worker) diskLoad(hash string, wj *workerJob, contexts int) ([]byte, bool) {
	if w.CacheDir == "" {
		return nil, false
	}
	data, err := os.ReadFile(w.shardPath(hash))
	if err != nil {
		return nil, false
	}
	packed, err := wal.ParseRecord(data)
	if err == nil {
		_, err = unpackShard(wj.a, wj.q, packed, contexts)
	}
	if err == nil {
		return packed, true
	}
	w.logf("work %s: shard cache entry %s corrupt (%v); re-solving", w.ID, hash, err)
	os.Remove(w.shardPath(hash))
	return nil, false
}

// diskStore persists one solved shard: its packed records in one CRC frame.
// Failures cost durability, not correctness, so they log and move on.
func (w *Worker) diskStore(hash string, packed []byte) {
	if w.CacheDir == "" {
		return
	}
	if err := vcache.AtomicWrite(w.CacheDir, w.shardPath(hash), wal.FrameRecord(packed)); err != nil {
		w.logf("work %s: persisting shard %s failed: %v", w.ID, hash, err)
	}
}
