// Package queue is the durable ingestion plane of the verification stack: a
// WAL-backed persistent job queue feeding a pool of consumers, built so that
// overload defers work instead of losing it (the service plane's 429 path
// sheds; this plane queues) and so that a crash loses nothing that was ever
// acknowledged.
//
// Durability contract. An Enqueue returns only after the job's journal
// record is fsynced (group commit: concurrent enqueues share one fsync, so
// the fsync rate is bounded by disk latency, not request rate). Completion
// records are write-behind — re-running a completed verification job is
// harmless because results are content-addressed in vcache — so a crash can
// re-run finished jobs but can never lose accepted ones. Recovery replays
// the journal (internal/wal's CRC-framed segments with torn-tail truncation)
// and re-queues exactly the jobs with no durable terminal record.
//
// Failure handling. A handler error counts an attempt; attempts retry with
// capped jittered exponential backoff until MaxAttempts, then the job is
// quarantined to a dead-letter log (its own fsync-per-append WAL) with the
// failure reason. A handler can short-circuit both ways: Permanent(err)
// dead-letters immediately (poison input — retrying cannot fix it) and
// ErrRequeue re-queues without an attempt (shutdown interrupted the run).
//
// Fairness. Dequeue is smooth weighted round-robin across tenants, with a
// per-tenant depth cap (one tenant can neither starve nor flood the rest)
// and a global cap bounding memory.
package queue

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/wal"
)

// Errors the queue returns (callers map the cap errors onto 429s).
var (
	ErrClosed     = errors.New("queue: closed")
	ErrKilled     = errors.New("queue: killed")
	ErrQueueFull  = errors.New("queue: backlog at global depth cap")
	ErrTenantFull = errors.New("queue: tenant at depth cap")
)

// ErrRequeue, returned by a Handler, puts the job back on the queue after a
// short delay without counting an attempt — the graceful-shutdown escape
// hatch: a handler whose run was cut off by a drain must neither terminalize
// its partial result nor burn a retry.
var ErrRequeue = errors.New("queue: requeue without penalty")

// PermanentError marks a handler failure no retry can fix; the queue
// dead-letters the job immediately instead of burning MaxAttempts on it.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }

func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err so the job is dead-lettered without retries.
func Permanent(err error) error { return &PermanentError{Err: err} }

// State is a job's lifecycle position.
type State int

const (
	// StatePending: accepted, durable, waiting for a consumer.
	StatePending State = iota + 1
	// StateRunning: leased to a consumer.
	StateRunning
	// StateWaiting: failed, sitting out a retry backoff.
	StateWaiting
	// StateDone: terminal success.
	StateDone
	// StateDead: terminal failure, quarantined in the dead-letter log.
	StateDead
)

// String renders the state for status payloads.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateWaiting:
		return "retry-waiting"
	case StateDone:
		return "done"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateDead }

// Job is one queued unit of work. The payload is opaque to the queue; the
// service plane stores its enqueue request JSON there.
type Job struct {
	ID      string
	Tenant  string
	Payload []byte
	// Attempts counts prior failed runs (0 on the first run). Restored from
	// the journal on recovery, so a flaky job does not get a fresh budget
	// just because the daemon restarted (minus any attempt records the crash
	// tore off the unsynced tail — the error is always toward more retries,
	// never toward losing the job).
	Attempts int

	state   State
	seq     int64 // acceptance order, for snapshot round-trips
	leaseAt time.Time
}

// DeadLetter is one quarantined job as recorded in the dead-letter log.
type DeadLetter struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Payload  []byte `json:"payload,omitempty"`
	Reason   string `json:"reason"`
	Attempts int    `json:"attempts"`
}

// JobID derives the content-addressed job ID: identical (tenant, payload)
// submissions collapse onto one job, which is what makes duplicate enqueues
// (client retries after a lost ack) idempotent.
func JobID(tenant string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte("queue-job\x00"))
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Status is a point-in-time queue snapshot.
type Status struct {
	// Depth counts accepted jobs awaiting execution (queued + retry-waiting).
	Depth    int `json:"depth"`
	Inflight int `json:"inflight"`
	Waiting  int `json:"retry_waiting"`
	// Counters are process-lifetime (terminal counts include journal replay).
	Enqueued int64 `json:"enqueued"`
	Done     int64 `json:"done"`
	Dead     int64 `json:"dead"`
	Retries  int64 `json:"retries"`
	Deduped  int64 `json:"deduped"`
	Rejected int64 `json:"rejected"`
	// PerTenant maps tenant name to unfinished jobs (queued+running+waiting).
	PerTenant map[string]int `json:"per_tenant,omitempty"`
	// OldestLeaseMS is the age of the longest-running in-flight job.
	OldestLeaseMS int64  `json:"oldest_lease_ms,omitempty"`
	Broken        string `json:"broken,omitempty"`
}

// Config tunes a Queue.
type Config struct {
	// Dir holds the journal (Dir/journal) and dead-letter log (Dir/dead).
	Dir string
	// FS is the filesystem (default OSFS; tests crash a MemFS).
	FS wal.FS
	// SegmentBytes is the WAL segment rotation size (default 256 KiB).
	SegmentBytes int
	// Handler runs one job. Its error decides the job's fate (see package
	// doc). Required.
	Handler func(ctx context.Context, job Job) error
	// Consumers is the worker pool size (default 2; negative = none, for
	// tests that drive the queue by hand).
	Consumers int
	// MaxAttempts dead-letters a job after this many failed runs (default 4).
	MaxAttempts int
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// attempts (defaults 100ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed makes retry jitter replayable (0 = 1).
	Seed int64
	// MaxDepth caps accepted-but-unfinished jobs (default 1<<20).
	MaxDepth int
	// TenantDepth caps one tenant's unfinished jobs (0 = MaxDepth).
	TenantDepth int
	// TenantWeights sets per-tenant dequeue weights (default 1 each).
	TenantWeights map[string]int
	// LeaseTTL bounds one handler run via its context (default 5m); an
	// overrun surfaces as a handler error and follows the retry path.
	LeaseTTL time.Duration
	// CompactEvery snapshots the live job set and truncates the journal
	// after this many terminal transitions (default 1024), bounding both
	// recovery time and journal size.
	CompactEvery int
	// SyncInterval is the group-commit batching window: the syncer sleeps
	// this long after the first pending append before fsyncing, so
	// concurrent enqueues share the fsync (default 1ms; negative = none).
	SyncInterval time.Duration
	// TerminalKeep bounds the in-memory terminal-state map (default 65536).
	// An evicted entry only costs a duplicate enqueue a re-verification,
	// which the vcache absorbs.
	TerminalKeep int
	// DeadKeep bounds the in-memory dead-letter tail (default 1024); the
	// dead-letter log on disk keeps everything.
	DeadKeep int
	// OnTerminal, when set, observes every terminal transition (after the
	// journal record is appended). Called outside the queue lock.
	OnTerminal func(job Job, state State)
	// Logf receives one line per notable event (default: silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = wal.OSFS{}
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 256 << 10
	}
	if c.Consumers == 0 {
		c.Consumers = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 1 << 20
	}
	if c.TenantDepth <= 0 {
		c.TenantDepth = c.MaxDepth
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Minute
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 1024
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = time.Millisecond
	}
	if c.TerminalKeep <= 0 {
		c.TerminalKeep = 65536
	}
	if c.DeadKeep <= 0 {
		c.DeadKeep = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Queue is the durable job queue. All mutable state is behind mu; the WAL
// logs are only touched under mu (MemFS, the crash-test filesystem, is not
// concurrency-safe, and the group-commit batching relies on appends queueing
// behind an in-progress fsync).
type Queue struct {
	cfg Config

	mu       sync.Mutex
	syncCond *sync.Cond // fsync progress (enqueue acks wait here)
	workCond *sync.Cond // runnable work / shutdown
	idleCond *sync.Cond // all-terminal transitions (WaitIdle)

	journal *wal.Log
	dead    *wal.Log

	jobs       map[string]*Job // every non-terminal accepted job
	pendingEnq map[string]*Job // journaled, awaiting fsync ack
	tenants    map[string]*tenantQ
	names      []string // sorted tenant names (deterministic WRR order)
	queued     int      // jobs sitting in tenant queues
	waiting    int      // jobs in retry backoff
	inflight   int

	appendSeq int64 // journal records appended
	syncSeq   int64 // journal records durable (fsync or snapshot)
	seqCtr    int64 // job acceptance order

	terminal map[string]State
	termRing []string // FIFO eviction ring over terminal
	termNext int

	deadTail []DeadLetter

	stats struct {
		enqueued, done, dead, retries, deduped, rejected int64
	}
	sinceSnap int

	rng    *rand.Rand
	timers map[string]*time.Timer

	closed bool
	killed bool
	broken error

	runCtx    context.Context
	runCancel context.CancelFunc
	stopCh    chan struct{}
	stopOnce  sync.Once
	syncKick  chan struct{}
	wg        sync.WaitGroup
}

// Open recovers the queue in cfg.Dir and starts the consumer pool. Jobs with
// no durable terminal record are re-queued in acceptance order.
func Open(cfg Config) (*Queue, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("queue: no handler")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("queue: no directory")
	}
	cfg = cfg.withDefaults()
	q := &Queue{
		cfg:        cfg,
		jobs:       map[string]*Job{},
		pendingEnq: map[string]*Job{},
		tenants:    map[string]*tenantQ{},
		terminal:   map[string]State{},
		termRing:   make([]string, 0, cfg.TerminalKeep),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		timers:     map[string]*time.Timer{},
		stopCh:     make(chan struct{}),
		syncKick:   make(chan struct{}, 1),
	}
	q.syncCond = sync.NewCond(&q.mu)
	q.workCond = sync.NewCond(&q.mu)
	q.idleCond = sync.NewCond(&q.mu)

	// The journal runs SyncNever: the enqueue path picks its own fsync
	// boundaries (group commit) and completion records ride the next batch.
	// The dead-letter log fsyncs per append — quarantine is rare and must
	// stick.
	jl, jrec, err := wal.Open(wal.Options{
		FS: cfg.FS, Dir: filepath.Join(cfg.Dir, "journal"),
		SegmentBytes: cfg.SegmentBytes, Sync: wal.SyncNever,
	})
	if err != nil {
		return nil, fmt.Errorf("queue: opening journal: %w", err)
	}
	dl, drec, err := wal.Open(wal.Options{
		FS: cfg.FS, Dir: filepath.Join(cfg.Dir, "dead"),
		SegmentBytes: cfg.SegmentBytes, Sync: wal.SyncEachAppend,
	})
	if err != nil {
		jl.Close()
		return nil, fmt.Errorf("queue: opening dead-letter log: %w", err)
	}
	q.journal, q.dead = jl, dl
	if err := q.replay(jrec, drec); err != nil {
		jl.Close()
		dl.Close()
		return nil, err
	}
	q.runCtx, q.runCancel = context.WithCancel(context.Background())
	q.wg.Add(1)
	go q.syncer()
	for i := 0; i < cfg.Consumers; i++ {
		q.wg.Add(1)
		go q.consume()
	}
	return q, nil
}

func (q *Queue) breakLocked(err error) {
	if q.broken == nil {
		q.broken = err
		q.cfg.Logf("queue: broken: %v", err)
	}
	q.syncCond.Broadcast()
	q.workCond.Broadcast()
	q.idleCond.Broadcast()
}

// usableLocked gates mutating entry points.
func (q *Queue) usableLocked() error {
	switch {
	case q.killed:
		return ErrKilled
	case q.closed:
		return ErrClosed
	case q.broken != nil:
		return q.broken
	default:
		return nil
	}
}

// Enqueue accepts one job. It returns after the job's journal record is
// fsynced (or after finding an existing job with the same content hash:
// dup=true, state tells where it got to). ErrQueueFull/ErrTenantFull mean
// the caller should shed or back off.
func (q *Queue) Enqueue(tenant string, payload []byte) (id string, st State, dup bool, err error) {
	id = JobID(tenant, payload)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.usableLocked(); err != nil {
		return "", 0, false, err
	}
	if st, ok := q.terminal[id]; ok {
		q.stats.deduped++
		obsDeduped.Inc()
		return id, st, true, nil
	}
	if j, ok := q.jobs[id]; ok {
		q.stats.deduped++
		obsDeduped.Inc()
		return id, j.state, true, nil
	}
	if _, ok := q.pendingEnq[id]; ok {
		// A concurrent enqueue of the same content is mid-fsync; its record
		// covers this caller too (if that fsync fails the queue is broken
		// for everyone anyway).
		q.stats.deduped++
		obsDeduped.Inc()
		return id, StatePending, true, nil
	}
	if len(q.jobs)+len(q.pendingEnq) >= q.cfg.MaxDepth {
		q.stats.rejected++
		obsRejected.Inc()
		return "", 0, false, ErrQueueFull
	}
	t := q.tenantLocked(tenant)
	if t.unfinished >= q.cfg.TenantDepth {
		q.stats.rejected++
		obsRejected.Inc()
		return "", 0, false, fmt.Errorf("%w: tenant %q has %d unfinished jobs", ErrTenantFull, tenant, t.unfinished)
	}

	j := &Job{ID: id, Tenant: tenant, Payload: payload, state: StatePending}
	q.pendingEnq[id] = j
	if aerr := q.appendLocked(rec{T: recEnq, ID: id, Tenant: tenant, P: payload}); aerr != nil {
		delete(q.pendingEnq, id)
		return "", 0, false, aerr
	}
	my := q.appendSeq
	for q.syncSeq < my && q.broken == nil && !q.killed {
		q.syncCond.Wait()
	}
	delete(q.pendingEnq, id)
	if q.syncSeq < my {
		if q.killed {
			return "", 0, false, ErrKilled
		}
		return "", 0, false, q.broken
	}
	// Durable. Re-check for the concurrent-duplicate that waited alongside
	// us: only one of the two may enter the run queue.
	if st, ok := q.terminal[id]; ok {
		return id, st, true, nil
	}
	if prev, ok := q.jobs[id]; ok {
		return id, prev.state, true, nil
	}
	q.seqCtr++
	j.seq = q.seqCtr
	q.jobs[id] = j
	t.push(j)
	t.unfinished++
	q.queued++
	q.stats.enqueued++
	obsEnqueued.Inc()
	q.gaugesLocked()
	q.workCond.Signal()
	return id, StatePending, false, nil
}

// appendLocked journals one record write-behind (callers that need
// durability wait on syncCond for appendSeq to be covered).
func (q *Queue) appendLocked(r rec) error {
	data, err := encodeRec(r)
	if err != nil {
		return err
	}
	if err := q.journal.Append(data); err != nil {
		q.breakLocked(err)
		return err
	}
	q.appendSeq++
	select {
	case q.syncKick <- struct{}{}:
	default:
	}
	return nil
}

// syncer is the group-commit loop: woken by the first pending append, it
// waits out the batching window (appends accumulate) and fsyncs once for the
// whole batch.
func (q *Queue) syncer() {
	defer q.wg.Done()
	for {
		select {
		case <-q.syncKick:
		case <-q.stopCh:
			return
		}
		if d := q.cfg.SyncInterval; d > 0 {
			time.Sleep(d)
		}
		q.mu.Lock()
		if q.killed || q.closed {
			q.mu.Unlock()
			return
		}
		q.fsyncLocked()
		q.mu.Unlock()
	}
}

// fsyncLocked makes every appended record durable and wakes ack waiters.
func (q *Queue) fsyncLocked() {
	target := q.appendSeq
	if target > q.syncSeq && q.broken == nil {
		if err := q.journal.Sync(); err != nil {
			q.breakLocked(err)
			return
		}
		q.syncSeq = target
		obsFsyncBatches.Inc()
	}
	q.syncCond.Broadcast()
}

// consume is one worker: pick fairly, run, settle.
func (q *Queue) consume() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for !q.closed && !q.killed && q.broken == nil && q.queued == 0 {
			q.workCond.Wait()
		}
		if q.closed || q.killed || q.broken != nil {
			q.mu.Unlock()
			return
		}
		j := q.pickLocked()
		if j == nil {
			q.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.leaseAt = time.Now()
		q.queued--
		q.inflight++
		q.gaugesLocked()
		q.mu.Unlock()

		err := q.runJob(j)
		if notify := q.settle(j, err); notify != nil {
			notify()
		}
	}
}

// runJob executes the handler with the lease deadline on its context and
// panic containment: a panicking handler is a failing handler, not a dead
// consumer.
func (q *Queue) runJob(j *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	ctx, cancel := context.WithTimeout(q.runCtx, q.cfg.LeaseTTL)
	defer cancel()
	return q.cfg.Handler(ctx, *j)
}

// settle journals the outcome of one run and routes the job to its next
// state. It returns the OnTerminal notification to fire outside the lock.
func (q *Queue) settle(j *Job, herr error) (notify func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight--
	if q.killed || q.broken != nil {
		// Simulated SIGKILL (or dead storage): nothing is written, nothing
		// transitions. Recovery re-runs the job.
		q.gaugesLocked()
		return nil
	}
	switch {
	case herr == nil:
		if err := q.appendLocked(rec{T: recDone, ID: j.ID}); err != nil {
			return nil
		}
		return q.terminalLocked(j, StateDone, "")
	case errors.Is(herr, ErrRequeue):
		// No attempt counted, but not an immediate re-push either: during a
		// drain the handler fails instantly, and an immediate requeue would
		// spin the consumer against it until Close lands.
		j.state = StateWaiting
		q.waiting++
		q.scheduleRetryLocked(j, q.cfg.RetryBase)
		q.gaugesLocked()
		return nil
	default:
		j.Attempts++
		var pe *PermanentError
		permanent := errors.As(herr, &pe)
		if permanent || j.Attempts >= q.cfg.MaxAttempts {
			return q.deadLetterLocked(j, herr.Error())
		}
		if err := q.appendLocked(rec{T: recTry, ID: j.ID, N: j.Attempts, Reason: truncReason(herr.Error())}); err != nil {
			return nil
		}
		q.stats.retries++
		obsRetries.Inc()
		j.state = StateWaiting
		q.waiting++
		q.scheduleRetryLocked(j, Backoff(q.cfg.RetryBase, q.cfg.RetryMax, j.Attempts, q.rng))
		q.gaugesLocked()
		return nil
	}
}

// Backoff is the capped jittered exponential delay before retry attempt
// (1-based), shared by every retry loop of the serving stack: base doubled
// per attempt, clamped to max (also when the shift overflows), plus up to
// half of that again drawn from rng, so retriers that failed together do not
// come back in lockstep. It draws exactly once from rng; the caller
// serialises access to it.
func Backoff(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

func (q *Queue) scheduleRetryLocked(j *Job, d time.Duration) {
	q.timers[j.ID] = time.AfterFunc(d, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(q.timers, j.ID)
		if q.closed || q.killed || q.broken != nil || j.state != StateWaiting {
			return
		}
		j.state = StatePending
		q.waiting--
		q.tenantLocked(j.Tenant).push(j)
		q.queued++
		q.gaugesLocked()
		q.workCond.Signal()
	})
}

// deadLetterLocked quarantines the job: forensic record first (fsynced), then
// the journal's terminal record. A crash between the two re-runs the job and
// dead-letters it again; the loader dedups the forensic log by job ID.
func (q *Queue) deadLetterLocked(j *Job, reason string) (notify func()) {
	reason = truncReason(reason)
	dl := DeadLetter{ID: j.ID, Tenant: j.Tenant, Payload: j.Payload, Reason: reason, Attempts: j.Attempts}
	data, err := encodeDeadLetter(dl)
	if err == nil {
		err = q.dead.Append(data)
	}
	if err != nil {
		q.breakLocked(fmt.Errorf("queue: dead-letter append: %w", err))
		return nil
	}
	if err := q.appendLocked(rec{T: recDead, ID: j.ID, N: j.Attempts, Reason: reason}); err != nil {
		return nil
	}
	q.deadTail = append(q.deadTail, dl)
	if len(q.deadTail) > q.cfg.DeadKeep {
		q.deadTail = q.deadTail[len(q.deadTail)-q.cfg.DeadKeep:]
	}
	q.cfg.Logf("queue: job %s (tenant %s) dead-lettered after %d attempts: %s", j.ID[:12], j.Tenant, j.Attempts, reason)
	return q.terminalLocked(j, StateDead, reason)
}

// terminalLocked finalizes a job in memory after its terminal record is in
// the journal.
func (q *Queue) terminalLocked(j *Job, st State, reason string) (notify func()) {
	delete(q.jobs, j.ID)
	t := q.tenantLocked(j.Tenant)
	t.unfinished--
	j.state = st
	q.rememberTerminalLocked(j.ID, st)
	if st == StateDone {
		q.stats.done++
		obsCompleted.Inc()
	} else {
		q.stats.dead++
		obsDeadLettered.Inc()
	}
	q.sinceSnap++
	if q.sinceSnap >= q.cfg.CompactEvery {
		q.compactLocked()
	}
	q.gaugesLocked()
	if len(q.jobs) == 0 && len(q.pendingEnq) == 0 {
		q.idleCond.Broadcast()
	}
	if cb := q.cfg.OnTerminal; cb != nil {
		jc := *j
		return func() { cb(jc, st) }
	}
	return nil
}

func (q *Queue) rememberTerminalLocked(id string, st State) {
	if len(q.termRing) < q.cfg.TerminalKeep {
		q.termRing = append(q.termRing, id)
	} else {
		delete(q.terminal, q.termRing[q.termNext])
		q.termRing[q.termNext] = id
		q.termNext = (q.termNext + 1) % q.cfg.TerminalKeep
	}
	q.terminal[id] = st
}

// compactLocked snapshots the live job set (queued, waiting, running, and
// mid-fsync enqueues) and truncates the journal. Everything appended so far
// is covered by the durable snapshot, so pending enqueue acks are released
// without an fsync of their own.
func (q *Queue) compactLocked() {
	state, err := q.encodeSnapshotLocked()
	if err == nil {
		err = q.journal.SaveSnapshot(state)
	}
	if err != nil {
		q.breakLocked(fmt.Errorf("queue: compaction: %w", err))
		return
	}
	q.sinceSnap = 0
	q.syncSeq = q.appendSeq
	q.syncCond.Broadcast()
	obsCompactions.Inc()
}

// JobState reports where a job got to. ok=false means the queue never saw
// the ID (or its terminal record aged out of the bounded memory map).
func (q *Queue) JobState(id string) (State, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		return j.state, true
	}
	if st, ok := q.terminal[id]; ok {
		return st, true
	}
	if _, ok := q.pendingEnq[id]; ok {
		return StatePending, true
	}
	return 0, false
}

// DeadLetters returns the most recent quarantined jobs (bounded tail; the
// on-disk dead-letter log keeps all of them).
func (q *Queue) DeadLetters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter, len(q.deadTail))
	copy(out, q.deadTail)
	return out
}

// Status snapshots the queue.
func (q *Queue) Status() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Status{
		Depth:    q.queued + q.waiting,
		Inflight: q.inflight,
		Waiting:  q.waiting,
		Enqueued: q.stats.enqueued,
		Done:     q.stats.done,
		Dead:     q.stats.dead,
		Retries:  q.stats.retries,
		Deduped:  q.stats.deduped,
		Rejected: q.stats.rejected,
	}
	if len(q.tenants) > 0 {
		st.PerTenant = make(map[string]int, len(q.tenants))
		for name, t := range q.tenants {
			if t.unfinished > 0 {
				st.PerTenant[name] = t.unfinished
			}
		}
	}
	oldest := time.Time{}
	for _, j := range q.jobs {
		if j.state == StateRunning && (oldest.IsZero() || j.leaseAt.Before(oldest)) {
			oldest = j.leaseAt
		}
	}
	if !oldest.IsZero() {
		st.OldestLeaseMS = time.Since(oldest).Milliseconds()
	}
	if q.broken != nil {
		st.Broken = q.broken.Error()
	}
	return st
}

// WaitIdle blocks until every accepted job has reached a terminal state.
func (q *Queue) WaitIdle(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			q.mu.Lock()
			q.idleCond.Broadcast()
			q.mu.Unlock()
		case <-stop:
		}
	}()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.jobs) == 0 && len(q.pendingEnq) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := q.usableLocked(); err != nil {
			return err
		}
		q.idleCond.Wait()
	}
}

// Kill simulates a SIGKILL for crash testing: every in-memory transition
// stops dead and nothing further is written — the unsynced journal tail is
// exactly what a real kill would leave in the page cache. The queue is
// unusable afterwards; recovery happens by Opening the directory again.
func (q *Queue) Kill() {
	q.mu.Lock()
	if q.killed {
		q.mu.Unlock()
		return
	}
	q.killed = true
	for id, t := range q.timers {
		t.Stop()
		delete(q.timers, id)
	}
	q.stopOnce.Do(func() { close(q.stopCh) })
	q.runCancel()
	q.syncCond.Broadcast()
	q.workCond.Broadcast()
	q.idleCond.Broadcast()
	q.mu.Unlock()
	// No wg.Wait: a kill does not say goodbye. Consumers still in a handler
	// observe killed at settle time and drop their outcome on the floor.
}

// Close drains gracefully: no new jobs or dequeues, running handlers finish
// and journal their outcomes, then everything is fsynced and compacted so
// the next Open replays a minimal journal.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.killed {
		q.mu.Unlock()
		return ErrKilled
	}
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	for id, t := range q.timers {
		t.Stop()
		delete(q.timers, id)
	}
	// Release enqueue ack waiters: their records go durable now, their jobs
	// are accepted (they will run on the next Open).
	q.fsyncLocked()
	q.workCond.Broadcast()
	q.idleCond.Broadcast()
	q.mu.Unlock()

	q.stopOnce.Do(func() { close(q.stopCh) })
	q.wg.Wait()
	q.runCancel()

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.broken == nil {
		// Flush the write-behind completion records from the drained
		// handlers, then compact so restart replays a snapshot, not history.
		q.fsyncLocked()
	}
	if q.broken == nil && q.sinceSnap > 0 {
		q.compactLocked()
	}
	jerr := q.journal.Close()
	derr := q.dead.Close()
	if q.broken != nil {
		return q.broken
	}
	if jerr != nil {
		return jerr
	}
	return derr
}

// truncReason bounds failure-reason strings everywhere they are stored.
func truncReason(s string) string {
	const maxReason = 512
	if len(s) > maxReason {
		return s[:maxReason] + "..."
	}
	return s
}
