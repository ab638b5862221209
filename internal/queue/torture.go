// Torture is the queue's fault-injection acceptance gate, in the style of
// cluster.Torture: every run drives a seeded schedule of kills (Kill + a
// page-cache crash with a random torn tail + reopen on the same filesystem),
// tenant floods against the depth caps, and quiet lulls, against a live
// queue whose jobs are a seeded mix of clean, flaky (transient failures
// below the retry budget) and poison (permanent failures) work, submitted
// concurrently by per-tenant goroutines that re-submit anything whose ack
// was lost to a crash.
//
// The assertions are the tentpole guarantees, schedule-independent by
// construction:
//
//   - no job lost: every acknowledged job reaches a terminal state, and the
//     final queue drains to depth 0 / inflight 0;
//   - exactly one terminal state: clean and flaky jobs end Done, poison ends
//     Dead, and no job ever reports both;
//   - no double-completion: at most one terminal notification per job per
//     queue incarnation (a crash that tears an unsynced completion record
//     may re-run the job in the next incarnation — that is the write-behind
//     contract, and it is why completions must be idempotent — but within
//     one journal history a job completes once);
//   - quarantine is durable: every poison job is present in the dead-letter
//     log with a failure reason, across however many crashes the schedule
//     dealt.
package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
	"repro/internal/wal"
)

// TortureConfig shapes a campaign.
type TortureConfig struct {
	// Runs is the number of seeded schedules; BaseSeed+i seeds run i.
	Runs     int
	BaseSeed int64
	// Jobs per run (default 40), spread round-robin over Tenants (default 3).
	Jobs    int
	Tenants int
	// Consumers per queue incarnation (default 3).
	Consumers int
	// Events is the chaos-event count per run (default 6).
	Events int
	// Parallel runs schedules concurrently (0 or 1 = sequential). Results
	// are folded in seed order.
	Parallel int
	// Verbose, when set, receives one line per run; with Parallel > 1 it is
	// called from concurrent runs.
	Verbose func(format string, args ...any)
}

// TortureResult aggregates a campaign.
type TortureResult struct {
	Runs int
	// Kills counts queue kill+crash+reopen events; Recovered totals the
	// unfinished jobs those reopens re-queued — the proof the schedules
	// exercised replay, not just clean drains.
	Kills     int
	Recovered int
	Floods    int
	// Rejections counts depth-cap refusals (flood pressure that worked).
	Rejections int
	// Resubmits counts enqueue acks lost to a crash and submitted again.
	Resubmits  int
	Dead       int
	Violations []sweep.Violation
}

func (r TortureResult) String() string {
	return fmt.Sprintf("queue torture: %d runs, %d violations; %d kills, %d jobs recovered, %d floods, %d cap rejections, %d resubmits, %d dead-lettered",
		r.Runs, len(r.Violations), r.Kills, r.Recovered, r.Floods, r.Rejections, r.Resubmits, r.Dead)
}

// Torture runs the campaign.
func Torture(cfg TortureConfig) TortureResult {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 40
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.Consumers <= 0 {
		cfg.Consumers = 3
	}
	if cfg.Events <= 0 {
		cfg.Events = 6
	}

	type run struct {
		stats  tortureStats
		detail string
	}
	runs, _, _ := sweep.Run(cfg.Runs, cfg.Parallel, nil, func(i int) run {
		seed := cfg.BaseSeed + int64(i)
		stats, detail := tortureRun(cfg, seed)
		if cfg.Verbose != nil {
			if detail != "" {
				cfg.Verbose("queue torture seed %d FAILED: %s", seed, detail)
			} else {
				cfg.Verbose("queue torture seed %d ok: %d kills, %d recovered, %d floods, %d rejections, %d resubmits",
					seed, stats.kills, stats.recovered, stats.floods, stats.rejections, stats.resubmits)
			}
		}
		return run{stats, detail}
	})
	var res TortureResult
	for i, r := range runs {
		res.Runs++
		res.Kills += r.stats.kills
		res.Recovered += r.stats.recovered
		res.Floods += r.stats.floods
		res.Rejections += r.stats.rejections
		res.Resubmits += r.stats.resubmits
		res.Dead += r.stats.dead
		if r.detail != "" {
			res.Violations = append(res.Violations, sweep.Violation{Seed: cfg.BaseSeed + int64(i), Detail: r.detail})
		}
	}
	return res
}

type tortureStats struct {
	kills, recovered, floods, rejections, resubmits, dead int
}

// Job kinds. Flaky failure counts stay strictly below MaxAttempts, so even
// a crash that loses attempt records (resetting the count) can only grant
// extra retries, never tip a flaky job into the dead-letter log — which is
// what makes the expected terminal state schedule-independent.
const (
	tortureMaxAttempts = 3
	tortureTenantDepth = 10
)

type tortureTracker struct {
	mu     sync.Mutex
	kind   map[string]string         // acked job ID → ok|flaky|poison
	notes  map[string]map[int]int    // job ID → incarnation → terminal notifications
	states map[string]map[State]bool // job ID → terminal states ever reported
}

func newTortureTracker() *tortureTracker {
	return &tortureTracker{
		kind:   map[string]string{},
		notes:  map[string]map[int]int{},
		states: map[string]map[State]bool{},
	}
}

func (tr *tortureTracker) acked(id, kind string) {
	tr.mu.Lock()
	tr.kind[id] = kind
	tr.mu.Unlock()
}

func (tr *tortureTracker) terminal(incarnation int) func(Job, State) {
	return func(j Job, st State) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if tr.notes[j.ID] == nil {
			tr.notes[j.ID] = map[int]int{}
		}
		tr.notes[j.ID][incarnation]++
		if tr.states[j.ID] == nil {
			tr.states[j.ID] = map[State]bool{}
		}
		tr.states[j.ID][st] = true
	}
}

// qbox hands the live queue incarnation to concurrent submitters while kill
// events swap it out underneath them.
type qbox struct {
	mu sync.Mutex
	q  *Queue
}

func (b *qbox) get() *Queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q
}

// tortureHandler runs one job from its payload "kind:index:flakiness".
func tortureHandler(_ context.Context, j Job) error {
	parts := strings.SplitN(string(j.Payload), ":", 3)
	kind := parts[0]
	idx := 0
	if len(parts) > 1 {
		idx, _ = strconv.Atoi(parts[1])
	}
	// Stagger handler latency by job index (no clocks, no randomness: the
	// handler must behave identically in every incarnation) so kill windows
	// land mid-run for some jobs and between jobs for others.
	time.Sleep(time.Duration(idx%3) * 500 * time.Microsecond)
	switch kind {
	case "poison":
		return Permanent(fmt.Errorf("torture poison job %d", idx))
	case "flaky":
		f := 1
		if len(parts) > 2 {
			f, _ = strconv.Atoi(parts[2])
		}
		if j.Attempts < f {
			return fmt.Errorf("torture transient failure %d/%d", j.Attempts+1, f)
		}
		return nil
	default:
		return nil
	}
}

func tortureRun(cfg TortureConfig, seed int64) (tortureStats, string) {
	rng := rand.New(rand.NewSource(seed))
	fs := wal.NewMemFS()
	tracker := newTortureTracker()
	var stats tortureStats
	incarnation := 0

	weights := map[string]int{}
	for t := 0; t < cfg.Tenants; t++ {
		weights[fmt.Sprintf("t%d", t)] = 1 + t%3
	}
	openQueue := func() (*Queue, error) {
		incarnation++
		qc := Config{
			Dir:           "tq",
			FS:            fs,
			SegmentBytes:  1 << 12, // small segments: kills land across rotations
			Handler:       tortureHandler,
			Consumers:     cfg.Consumers,
			MaxAttempts:   tortureMaxAttempts,
			RetryBase:     time.Millisecond,
			RetryMax:      4 * time.Millisecond,
			Seed:          seed*31 + int64(incarnation),
			TenantDepth:   tortureTenantDepth,
			TenantWeights: weights,
			CompactEvery:  16, // frequent compaction: kills land around snapshots
			OnTerminal:    tracker.terminal(incarnation),
		}
		if rng.Intn(2) == 0 {
			qc.SyncInterval = -1 // immediate group commit
		} else {
			qc.SyncInterval = 500 * time.Microsecond // batching window in play
		}
		return Open(qc)
	}

	q0, err := openQueue()
	if err != nil {
		return stats, fmt.Sprintf("initial open: %v", err)
	}
	box := &qbox{q: q0}

	// Assign kinds up front from the schedule rng (the submitters must not
	// consume seeded randomness concurrently).
	type jobSpec struct{ tenant, kind, payload string }
	specs := make([]jobSpec, cfg.Jobs)
	for i := range specs {
		tenant := fmt.Sprintf("t%d", i%cfg.Tenants)
		kind, flakiness := "ok", 0
		switch r := rng.Float64(); {
		case r < 0.15:
			kind = "poison"
		case r < 0.40:
			kind = "flaky"
			flakiness = 1 + rng.Intn(tortureMaxAttempts-1)
		}
		specs[i] = jobSpec{tenant: tenant, kind: kind, payload: fmt.Sprintf("%s:%d:%d", kind, i, flakiness)}
	}

	// Per-tenant submitters: enqueue each job until some incarnation acks
	// it, re-submitting through kills, cap rejections, and lost acks.
	var resubmits, rejections atomic.Int64
	var subWG sync.WaitGroup
	for t := 0; t < cfg.Tenants; t++ {
		subWG.Add(1)
		go func(t int) {
			defer subWG.Done()
			for i := t; i < len(specs); i += cfg.Tenants {
				sp := specs[i]
				for attempt := 0; ; attempt++ {
					if attempt > 5000 {
						// Leave the job unacked; the final assertions only
						// cover acknowledged jobs, and a stuck submitter
						// must not hang the campaign.
						return
					}
					id, _, _, err := box.get().Enqueue(sp.tenant, []byte(sp.payload))
					if err == nil {
						tracker.acked(id, sp.kind)
						break
					}
					switch {
					case errors.Is(err, ErrTenantFull), errors.Is(err, ErrQueueFull):
						rejections.Add(1)
					case errors.Is(err, ErrKilled), errors.Is(err, ErrClosed):
						resubmits.Add(1)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(t)
	}

	// The chaos schedule runs against the submitters.
	var detail string
	fail := func(format string, args ...any) {
		if detail == "" {
			detail = fmt.Sprintf(format, args...)
		}
	}
	for e := 0; e < cfg.Events && detail == ""; e++ {
		time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
		switch r := rng.Float64(); {
		case r < 0.5: // SIGKILL + page-cache crash with a random torn tail
			box.mu.Lock()
			box.q.Kill()
			fs.Crash(func(name string, unsynced int) int { return rng.Intn(unsynced + 1) })
			nq, err := openQueue()
			if err != nil {
				box.mu.Unlock()
				fail("reopen after kill %d: %v", stats.kills+1, err)
				break
			}
			stats.recovered += nq.Status().Depth
			box.q = nq
			box.mu.Unlock()
			stats.kills++
		case r < 0.8: // flood one tenant past its depth cap
			stats.floods++
			q := box.get()
			tenant := fmt.Sprintf("t%d", rng.Intn(cfg.Tenants))
			for b := 0; b < tortureTenantDepth+5; b++ {
				payload := fmt.Sprintf("ok:%d:0", 1000+stats.floods*100+b)
				id, _, _, err := q.Enqueue(tenant, []byte(payload))
				switch {
				case err == nil:
					tracker.acked(id, "ok")
				case errors.Is(err, ErrTenantFull), errors.Is(err, ErrQueueFull):
					rejections.Add(1)
				}
			}
		default: // lull: let the drain make progress
			time.Sleep(3 * time.Millisecond)
		}
	}

	subWG.Wait()
	stats.resubmits = int(resubmits.Load())
	stats.rejections += int(rejections.Load())
	if detail != "" {
		box.get().Kill()
		return stats, detail
	}

	// Drain and verify every guarantee.
	q := box.get()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = q.WaitIdle(ctx)
	cancel()
	if err != nil {
		q.Kill()
		return stats, fmt.Sprintf("final drain: %v", err)
	}
	st := q.Status()
	if st.Depth != 0 || st.Inflight != 0 {
		fail("drained queue not empty: depth=%d inflight=%d", st.Depth, st.Inflight)
	}
	deadByID := map[string]DeadLetter{}
	for _, dl := range q.DeadLetters() {
		deadByID[dl.ID] = dl
	}
	tracker.mu.Lock()
	for id, kind := range tracker.kind {
		want := StateDone
		if kind == "poison" {
			want = StateDead
		}
		got, ok := q.JobState(id)
		if !ok {
			fail("acked %s job %s lost: no state after drain", kind, id[:12])
			continue
		}
		if got != want {
			fail("%s job %s ended %v, want %v", kind, id[:12], got, want)
		}
		for inc, n := range tracker.notes[id] {
			if n > 1 {
				fail("job %s completed %d times in incarnation %d", id[:12], n, inc)
			}
		}
		if len(tracker.states[id]) > 1 {
			fail("job %s reported multiple terminal states %v", id[:12], tracker.states[id])
		}
		if kind == "poison" {
			dl, present := deadByID[id]
			if !present {
				fail("poison job %s missing from dead-letter log", id[:12])
			} else if dl.Reason == "" {
				fail("poison job %s dead-lettered without a reason", id[:12])
			} else {
				stats.dead++
			}
		}
	}
	tracker.mu.Unlock()
	if err := q.Close(); err != nil && detail == "" {
		fail("final close: %v", err)
	}
	return stats, detail
}
