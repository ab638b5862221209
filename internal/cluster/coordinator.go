package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/wal"
)

// Config tunes one Coordinator.
type Config struct {
	// LeaseTTL bounds how long a claimed shard stays assigned without a
	// heartbeat before it is reissued (default 3s).
	LeaseTTL time.Duration
	// SweepEvery is the expiry-scan cadence (default LeaseTTL/4).
	SweepEvery time.Duration
	// MaxAttempts caps remote issues per shard; past it the shard is only
	// solved locally — a shard that kills every worker it touches must not
	// cycle through the pool forever (default 5).
	MaxAttempts int
	// ShardSize is the contexts-per-shard granule (default 64).
	ShardSize int
	// RetryBase/RetryMax shape the jittered exponential backoff before a
	// reissued shard becomes claimable again (defaults 200ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives lease IDs and reissue jitter (0 = 1). Timing never feeds
	// verdicts; the seed exists so torture schedules replay exactly.
	Seed int64
	// JournalDir, when set, WAL-journals job submissions, assignments,
	// expiries, and completed shards so a coordinator restart resumes
	// instead of restarting. JournalFS defaults to the OS filesystem;
	// JournalSync to SyncEachAppend, under which every request that journals
	// fsyncs once, after its last record and before it is acknowledged.
	JournalDir  string
	JournalFS   wal.FS
	JournalSync wal.SyncMode
	// LocalWorkers sets the solver threads used when the coordinator
	// degrades to solving shards itself (default NumCPU).
	LocalWorkers int
	// IdleLocalAfter is how long the pool must be silent — no live leases
	// and no claim traffic — before the coordinator starts draining pending
	// shards locally (default 2×LeaseTTL).
	IdleLocalAfter time.Duration
	// Now and Logf are test/observability hooks.
	Now  func() time.Time
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTTL / 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 64
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LocalWorkers <= 0 {
		c.LocalWorkers = runtime.NumCPU()
	}
	if c.IdleLocalAfter <= 0 {
		c.IdleLocalAfter = 2 * c.LeaseTTL
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Shard lifecycle. A shard leaves done/cancelled never; pending→leased on
// claim, leased→pending on lease expiry (the reissue path), and any open
// state →cancelled when a Sat earlier in the preorder makes it unneeded.
const (
	shardPending = iota
	shardLeased
	shardDone
	shardCancelled
)

const localWorkerID = "local"

type shard struct {
	idx      int
	base     int // first preorder index (inclusive)
	end      int // past-the-end preorder index
	hash     string
	state    int
	attempt  int // remote issues so far
	lease    string
	worker   string
	expiry   time.Time // lease deadline (leased shards)
	eligible time.Time // reissue backoff gate (pending shards)
	// localOnly marks a shard past MaxAttempts: never claimable remotely
	// again, drained by the coordinator's local loop.
	localOnly bool
}

type job struct {
	id      string
	payload JobPayload
	label   string
	query   *spec.Query
	a       *ta.TA
	plan    *schema.FullPlan
	ctxs    [][]int
	// truncated: the context list is an EnumeratePrefix prefix, so a
	// Sat-free fold yields Budget (see FoldTruncatedRecords).
	truncated bool
	shards    []*shard
	recs      []schema.IndexRecord
	// minSat is the least preorder index with a certified Sat so far
	// (math.MaxInt = none); shards based beyond it are cancelled.
	minSat int
	open   int // shards neither done nor cancelled
	// reissues counts assignments past a shard's first (the robustness
	// headline number: how much work the fault schedule forced us to redo).
	reissues int
	finished bool
	res      schema.Result
	err      error
	doneCh   chan struct{}
	started  time.Time
}

// Coordinator owns the job table, the lease ledger, and the journal. All
// state transitions happen under mu; solving never does (the local loop
// solves outside the lock and re-enters to integrate).
type Coordinator struct {
	cfg     Config
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	journal *wal.Log
	// unsynced: records appended since the last commit.
	unsynced bool
	rng      *rand.Rand
	// lastClaim and leases drive pool-empty detection for the degradation
	// ladder; leases counts live *remote* leases only.
	lastClaim time.Time
	leases    int
	replaying bool
	leaseSeq  uint64
	// leasesViaReport counts leases issued on a report's response rather than
	// a claim's — how the torture campaign shows its schedules met the
	// combined round trip.
	leasesViaReport int

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New builds a coordinator, replays its journal when one is configured, and
// starts the sweep and local-drain loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		stopCh: make(chan struct{}),
	}
	c.lastClaim = cfg.Now()
	if cfg.JournalDir != "" {
		// The log never syncs on its own: commit does, once per request.
		log, rec, err := wal.Open(wal.Options{
			FS:   cfg.JournalFS,
			Dir:  cfg.JournalDir,
			Sync: wal.SyncNever,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: opening journal: %w", err)
		}
		c.journal = log
		if err := c.replay(rec); err != nil {
			log.Close()
			return nil, err
		}
	}
	c.wg.Add(2)
	go c.sweepLoop()
	go c.localLoop()
	return c, nil
}

// Close stops the background loops and closes the journal. In-flight local
// solving winds down at the next stop poll.
func (c *Coordinator) Close() error {
	if c.stopped.Swap(true) {
		return nil
	}
	close(c.stopCh)
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		// Nothing is unsynced here: every journaling request commits before
		// it releases mu.
		return c.journal.Close()
	}
	return nil
}

// Submit registers a job, enumerating its contexts and cutting shards. It is
// idempotent by content address: resubmitting a payload returns the existing
// job. The heavy work (analysis, enumeration, hashing) happens outside the
// lock so a long enumeration cannot stall heartbeats for running jobs.
func (c *Coordinator) Submit(p JobPayload) (string, error) {
	id := p.ID()
	c.mu.Lock()
	if _, ok := c.jobs[id]; ok {
		c.mu.Unlock()
		return id, nil
	}
	c.mu.Unlock()

	j, exceeded, err := c.buildJob(id, p, 0)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.commit()
	if _, ok := c.jobs[id]; ok {
		return id, nil // lost a submit race; the jobs are identical by construction
	}
	c.journalRec(&JournalRecord{
		T: recJob, Job: id, Payload: &p,
		ShardSize: c.cfg.ShardSize, Contexts: len(j.ctxs),
		Truncated: j.truncated, Exceeded: exceeded,
	})
	c.installJob(j, exceeded)
	return id, nil
}

// buildJob resolves, enumerates, and shards one payload. shardSize == 0 uses
// the config; journal replay passes the journaled size so shard boundaries
// (and hence hashes) match the done-records on disk even if the config
// changed between runs.
func (c *Coordinator) buildJob(id string, p JobPayload, shardSize int) (*job, bool, error) {
	a, label, q, err := p.Resolve()
	if err != nil {
		return nil, false, err
	}
	eng, err := schema.New(a, schema.Options{
		Mode:       schema.FullEnumeration,
		MaxSchemas: p.MaxSchemas,
		Workers:    c.cfg.LocalWorkers,
		Stop:       c.stopped.Load,
	})
	if err != nil {
		return nil, false, err
	}
	plan, err := eng.PlanFull(q)
	if err != nil {
		return nil, false, err
	}
	j := &job{
		id: id, payload: p, label: label, query: q,
		a: eng.TA(), plan: plan,
		minSat: math.MaxInt,
		doneCh: make(chan struct{}),
	}
	if p.Truncate > 0 {
		j.ctxs, j.truncated = plan.EnumeratePrefix(p.Truncate, c.stopped.Load)
	} else {
		ctxs, exceeded, interrupted := plan.Enumerate()
		if interrupted {
			return nil, false, fmt.Errorf("cluster: enumeration of %s/%s interrupted", label, q.Name)
		}
		if exceeded {
			// Same instant Budget verdict a single-box run reports when the
			// structural cutoff fires: MaxSchemas+1 enumerated, none solved.
			return j, true, nil
		}
		j.ctxs = ctxs
	}
	if c.stopped.Load() {
		return nil, false, fmt.Errorf("cluster: coordinator stopped during enumeration")
	}
	if shardSize <= 0 {
		shardSize = c.cfg.ShardSize
	}
	j.recs = make([]schema.IndexRecord, len(j.ctxs))
	for base := 0; base < len(j.ctxs); base += shardSize {
		end := base + shardSize
		if end > len(j.ctxs) {
			end = len(j.ctxs)
		}
		j.shards = append(j.shards, &shard{
			idx:  len(j.shards),
			base: base, end: end,
			hash: shardHash(id, base, j.ctxs[base:end]),
		})
	}
	j.open = len(j.shards)
	return j, false, nil
}

// installJob (mu held) makes a built job claimable, or finalizes it at once
// when its enumeration exceeded the schema budget.
func (c *Coordinator) installJob(j *job, exceeded bool) {
	j.started = c.cfg.Now()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	if exceeded {
		j.res = schema.Result{
			Query:   j.query.Name,
			Mode:    schema.FullEnumeration,
			Outcome: spec.Budget,
			Schemas: j.plan.MaxSchemas() + 1,
		}
		c.finishJob(j)
		return
	}
	if j.open == 0 {
		// A query with an empty alphabet still has the root context, so this
		// cannot happen for a well-formed plan; guard anyway.
		c.finalize(j)
	}
	c.cfg.Logf("cluster: job %s %s/%s: %d contexts in %d shards (truncated=%v)",
		j.id, j.label, j.query.Name, len(j.ctxs), len(j.shards), j.truncated)
}

// Wait blocks until the job completes, the context is done, or the
// coordinator closes.
func (c *Coordinator) Wait(ctx context.Context, id string) (schema.Result, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return schema.Result{}, fmt.Errorf("cluster: no job %s", id)
	}
	select {
	case <-j.doneCh:
	case <-ctx.Done():
		return schema.Result{}, ctx.Err()
	case <-c.stopCh:
		return schema.Result{}, fmt.Errorf("cluster: coordinator closed while waiting for %s", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return j.res, j.err
}

// Result peeks at a job's verdict without blocking; done=false while shards
// are still out.
func (c *Coordinator) Result(id string) (res schema.Result, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return schema.Result{}, false, fmt.Errorf("cluster: no job %s", id)
	}
	if !j.finished {
		return schema.Result{}, false, nil
	}
	return j.res, true, j.err
}

// StatusOf snapshots a job's coordination state (the HTTP status surface).
func (c *Coordinator) StatusOf(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{
		Job: j.id, Model: j.label, Query: j.query.Name,
		Done: j.finished, ShardsTotal: len(j.shards), Reissues: j.reissues,
	}
	for _, s := range j.shards {
		switch s.state {
		case shardDone:
			st.ShardsDone++
		case shardCancelled:
			st.ShardsCancelled++
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.finished && j.err == nil {
		st.Outcome = j.res.Outcome.String()
		st.Schemas = j.res.Schemas
		st.AvgLen = j.res.AvgLen
		st.Solver = j.res.Solver
		if j.res.CE != nil {
			st.CEText = j.res.CE.Format()
		}
	}
	return st, true
}

// newLease mints a lease ID from the seeded stream (replayable schedules).
func (c *Coordinator) newLease() string {
	c.leaseSeq++
	return fmt.Sprintf("L%06d-%08x", c.leaseSeq, c.rng.Uint32())
}

// claim issues the next needed shard to a worker, or returns nil when
// nothing is claimable right now. Jobs are served in submission order and
// shards in preorder — the order that lets the CAS-min early exit cancel the
// most downstream work.
func (c *Coordinator) claim(workerID string) *ClaimResponse {
	c.mu.Lock()
	defer c.commit()
	return c.claimLocked(workerID)
}

// claimLocked (mu held) is claim proper.
func (c *Coordinator) claimLocked(workerID string) *ClaimResponse {
	now := c.cfg.Now()
	c.lastClaim = now
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		for _, s := range j.shards {
			if s.state != shardPending || s.localOnly || s.base > j.minSat || now.Before(s.eligible) {
				continue
			}
			s.state = shardLeased
			s.attempt++
			s.lease = c.newLease()
			s.worker = workerID
			s.expiry = now.Add(c.cfg.LeaseTTL)
			c.leases++
			if s.attempt > 1 {
				j.reissues++
				obsShardsReissued.Inc()
				c.cfg.Logf("cluster: job %s shard %d reissued to %s (attempt %d)", j.id, s.idx, workerID, s.attempt)
			}
			obsShardsClaimed.Inc()
			c.journalRec(&JournalRecord{
				T: recAssign, Job: j.id, Shard: s.idx,
				Worker: workerID, Lease: s.lease, Attempt: s.attempt,
			})
			packed := packContexts(j.ctxs[s.base:s.end])
			obsClaimBytes.Add(int64(len(packed)))
			return &ClaimResponse{
				Job: j.id, Shard: s.idx, Base: s.base, Attempt: s.attempt,
				Contexts: packed, Hash: s.hash,
				Lease: s.lease, TTLMS: c.cfg.LeaseTTL.Milliseconds(),
			}
		}
	}
	return nil
}

// heartbeat extends a live lease; false means the lease is gone — expired
// and reissued, cancelled, or already completed — and the worker should
// abandon the shard.
func (c *Coordinator) heartbeat(jobID, lease string, shardIdx int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok || shardIdx < 0 || shardIdx >= len(j.shards) {
		return false
	}
	s := j.shards[shardIdx]
	if s.state != shardLeased || s.lease != lease {
		return false
	}
	s.expiry = c.cfg.Now().Add(c.cfg.LeaseTTL)
	return true
}

// report integrates a worker's completed shard and, when the request asks
// for more, claims its next one under the same hold of mu — so the done, the
// assign and a jobdone share the one fsync commit makes before the response
// leaves. Acceptance is by content hash, not lease: records are
// deterministic, so a report from a worker whose lease expired mid-solve is
// byte-identical to the reissue's and integrating whichever lands first is
// safe. Duplicate and post-cancel reports are acknowledged and dropped. A
// refused report claims nothing.
func (c *Coordinator) report(req *resultRequest) (*ClaimResponse, error) {
	c.mu.Lock()
	defer c.commit()
	if err := c.reportLocked(req); err != nil || !req.More {
		return nil, err
	}
	next := c.claimLocked(req.Worker)
	if next != nil {
		c.leasesViaReport++
	}
	return next, nil
}

func (c *Coordinator) reportLocked(req *resultRequest) error {
	j, ok := c.jobs[req.Job]
	if !ok {
		return errNoJob
	}
	if req.Shard < 0 || req.Shard >= len(j.shards) {
		return errNoShard
	}
	s := j.shards[req.Shard]
	if req.Hash != s.hash {
		return errHashMismatch
	}
	if j.finished || s.state == shardDone || s.state == shardCancelled {
		obsDuplicateReport.Inc()
		return nil
	}
	frame, err := c.doneFrame(j, s, req.Worker, req.Records)
	if err != nil {
		return err
	}
	recs, err := unpackShard(j.a, j.query, req.Records, s.end-s.base)
	if err != nil {
		// An undecodable or uncertifiable report is the worker's fault, not
		// the shard's: reject it and leave the lease to expire and reissue.
		return fmt.Errorf("%w: %v", errBadRecords, err)
	}
	c.integrate(j, s, recs, req.Worker, frame)
	return nil
}

// integrate (mu held) commits a solved shard: records, first-Sat CAS-min,
// downstream cancellation, journal (frame is the shard's doneFrame, nil when
// nothing is journaled), and job finalization.
func (c *Coordinator) integrate(j *job, s *shard, recs []schema.IndexRecord, worker string, frame []byte) {
	// Local leases are never counted in c.leases (they must not suppress the
	// pool-idle signal), so only a remote lease holder releases one.
	if s.state == shardLeased && s.worker != localWorkerID {
		c.leases--
	}
	s.state = shardDone
	s.worker = worker
	j.open--
	copy(j.recs[s.base:s.end], recs)
	obsShardsDone.Inc()
	for i := range recs {
		if recs[i].Done && recs[i].Status == smt.Sat {
			if s.base+i < j.minSat {
				j.minSat = s.base + i
			}
			break
		}
	}
	// A certified Sat at minSat makes every shard based beyond it dead
	// weight: the fold only consumes the prefix [0..minSat].
	for _, s2 := range j.shards {
		if s2.base > j.minSat && (s2.state == shardPending || s2.state == shardLeased) {
			if s2.state == shardLeased && s2.worker != localWorkerID {
				c.leases--
			}
			s2.state = shardCancelled
			j.open--
			obsShardsCancelled.Inc()
		}
	}
	if frame != nil {
		c.journalFrame(frame)
	}
	if j.open == 0 {
		c.finalize(j)
	}
}

// finalize (mu held) folds the records into the job's verdict.
func (c *Coordinator) finalize(j *job) {
	var res schema.Result
	var err error
	if j.truncated {
		res, err = schema.FoldTruncatedRecords(j.query.Name, j.recs)
	} else {
		res, err = schema.FoldRecords(j.query.Name, j.recs)
	}
	j.res, j.err = res, err
	c.finishJob(j)
}

// finishJob (mu held) stamps observational fields and releases waiters.
func (c *Coordinator) finishJob(j *job) {
	j.res.Elapsed = c.cfg.Now().Sub(j.started)
	j.finished = true
	close(j.doneCh)
	obsJobsCompleted.Inc()
	c.journalRec(&JournalRecord{T: recJobDone, Job: j.id})
	c.cfg.Logf("cluster: job %s %s/%s finished: %v (%d schemas, %d reissues)",
		j.id, j.label, j.query.Name, j.res.Outcome, j.res.Schemas, j.reissues)
}

// sweepLoop expires dead leases on a timer.
func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep reclaims every lease past its deadline: the shard returns to pending
// behind a jittered backoff gate, and a shard past MaxAttempts becomes
// local-only. This is the crash/hang/partition recovery path — a worker that
// stops heartbeating for any reason loses the shard, no diagnosis needed.
func (c *Coordinator) sweep() {
	c.mu.Lock()
	defer c.commit()
	now := c.cfg.Now()
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		for _, s := range j.shards {
			if s.state != shardLeased || s.worker == localWorkerID || now.Before(s.expiry) {
				continue
			}
			c.leases--
			s.state = shardPending
			obsLeasesExpired.Inc()
			c.journalRec(&JournalRecord{
				T: recExpire, Job: j.id, Shard: s.idx,
				Worker: s.worker, Lease: s.lease, Attempt: s.attempt,
			})
			c.cfg.Logf("cluster: job %s shard %d lease %s (worker %s, attempt %d) expired",
				j.id, s.idx, s.lease, s.worker, s.attempt)
			s.lease = ""
			if s.attempt >= c.cfg.MaxAttempts {
				s.localOnly = true
				c.cfg.Logf("cluster: job %s shard %d exhausted %d remote attempts; local-only",
					j.id, s.idx, s.attempt)
			} else {
				s.eligible = now.Add(queue.Backoff(c.cfg.RetryBase, c.cfg.RetryMax, s.attempt, c.rng))
			}
		}
	}
}

// localLoop is the bottom of the degradation ladder: shards that exhausted
// their remote attempts, and — once the worker pool has been silent for
// IdleLocalAfter — any leftover shard, are solved in-process. A cluster
// whose every worker died finishes anyway, with the exact verdict the
// workers would have produced.
func (c *Coordinator) localLoop() {
	defer c.wg.Done()
	for {
		j, s := c.claimLocal()
		if s == nil {
			select {
			case <-c.stopCh:
				return
			case <-time.After(c.cfg.SweepEvery):
			}
			continue
		}
		recs, interrupted, err := j.plan.SolveRange(j.ctxs[s.base:s.end], s.base, c.cfg.LocalWorkers, c.stopped.Load)
		c.mu.Lock()
		switch {
		case err != nil:
			// A solver error is deterministic for the shard's contexts;
			// retrying remotely would hit it too. Fail the job.
			s.state = shardPending
			if !j.finished {
				j.err = fmt.Errorf("cluster: local solve of job %s shard %d: %w", j.id, s.idx, err)
				c.finishJob(j)
			}
		case interrupted:
			s.state = shardPending
		default:
			if !j.finished && s.state == shardLeased {
				obsShardsLocal.Inc()
				frame, ferr := c.doneFrame(j, s, localWorkerID, packRecords(j.a, recs))
				if ferr != nil {
					// Nobody to refuse: the shard is solved and this process
					// is its only holder. Keep it in memory, count the hole.
					obsJournalErrors.Inc()
					c.cfg.Logf("cluster: job %s shard %d not journaled: %v", j.id, s.idx, ferr)
				}
				c.integrate(j, s, recs, localWorkerID, frame)
			}
		}
		c.commit()
	}
}

// claimLocal picks the next shard the coordinator itself should solve.
func (c *Coordinator) claimLocal() (*job, *shard) {
	// Once Close has tripped the stop flag every solve would return
	// interrupted and the shard would come straight back to pending; claiming
	// again would spin localLoop forever and deadlock Close's wg.Wait. Return
	// nothing so the loop falls through to the stopCh select.
	if c.stopped.Load() {
		return nil, nil
	}
	c.mu.Lock()
	defer c.commit()
	now := c.cfg.Now()
	poolIdle := c.leases == 0 && now.Sub(c.lastClaim) > c.cfg.IdleLocalAfter
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		for _, s := range j.shards {
			if s.state != shardPending || s.base > j.minSat {
				continue
			}
			if !s.localOnly && !poolIdle {
				continue
			}
			s.state = shardLeased
			s.lease = c.newLease()
			s.worker = localWorkerID
			// No expiry pressure: the local solver shares the coordinator's
			// fate, and replay voids the lease if the process dies.
			s.expiry = now.Add(24 * time.Hour)
			c.journalRec(&JournalRecord{
				T: recAssign, Job: j.id, Shard: s.idx,
				Worker: localWorkerID, Lease: s.lease, Attempt: s.attempt,
			})
			return j, s
		}
	}
	return nil, nil
}
