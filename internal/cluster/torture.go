package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/wal"
)

// Torture is the cluster's fault-injection acceptance gate, in the style of
// faults.TortureCampaign: every run spins up a real coordinator (in-memory
// WAL journal) and real workers over real HTTP, then drives a seeded
// schedule of worker kills, worker restarts, network partitions, and
// coordinator restarts against it. The single assertion is the tentpole
// guarantee — the cluster verdict, schema count, average length, solver
// statistics, and counterexample are byte-identical to a single-box run no
// matter what the schedule killed. Every event draws from
// rand.New(rand.NewSource(seed)), so a failing seed replays exactly; no
// global math/rand state is ever consulted.
type TortureConfig struct {
	// Payload is the job every run verifies (a full-mode query).
	Payload JobPayload
	// Runs is the number of seeded schedules; BaseSeed+i seeds run i.
	Runs     int
	BaseSeed int64
	// Workers is the starting worker-pool size per run (default 3).
	Workers int
	// SolverThreads is each worker's solver parallelism (default 2).
	SolverThreads int
	// Events is the chaos-event count per run (default 4).
	Events int
	// ShardSize overrides the coordinator's shard granule (default 8 — small
	// shards so kill windows land mid-job).
	ShardSize int
	// Parallel runs schedules concurrently (0 or 1 = sequential). Runs are
	// independent; violations are collected in seed order.
	Parallel int
	// Verbose, when set, receives one line per run.
	Verbose func(format string, args ...any)
	// Stop, when set, is polled between runs; true ends the campaign early.
	Stop func() bool
}

// TortureViolation is one seed whose cluster verdict diverged (or never
// arrived). The seed is the replay handle: rerun the campaign with
// BaseSeed=Seed, Runs=1 to reproduce the schedule exactly.
type TortureViolation struct {
	Seed   int64
	Detail string
}

func (v TortureViolation) String() string {
	return fmt.Sprintf("seed %d: %s", v.Seed, v.Detail)
}

// TortureResult aggregates a campaign.
type TortureResult struct {
	Runs       int
	Kills      int
	Restarts   int
	Partitions int
	// CoordRestarts counts coordinator kill+journal-resume events.
	CoordRestarts int
	// Reissues totals shard reissues observed across runs — the proof that
	// the schedules actually forced lease-expiry recovery, not just clean
	// runs.
	Reissues int
	// LeasesViaReport counts leases that rode on a report's response instead
	// of a claim's: after a worker's first shard, every lease the schedules'
	// kills, partitions and coordinator restarts hit.
	LeasesViaReport int
	Violations      []TortureViolation
	// Interrupted is set when Stop ended the campaign early; NextSeed is the
	// resume point.
	Interrupted bool
	NextSeed    int64
}

func (r TortureResult) String() string {
	return fmt.Sprintf("cluster torture: %d runs, %d violations; %d kills, %d restarts, %d partitions, %d coordinator restarts, %d reissues; %d leases on a report's response",
		r.Runs, len(r.Violations), r.Kills, r.Restarts, r.Partitions, r.CoordRestarts, r.Reissues, r.LeasesViaReport)
}

// CompareResults byte-compares the deterministic slice of two results — the
// obs report row (schema.Result.Row, Budget rule included) plus the full
// counterexample — and describes the first divergence ("" = identical). It
// is the comparison surface of the determinism tests and the verify.sh
// cluster smoke leg.
func CompareResults(model string, want, got schema.Result) string {
	wantRow, _ := json.Marshal(want.Row(model))
	gotRow, _ := json.Marshal(got.Row(model))
	if string(wantRow) != string(gotRow) {
		return fmt.Sprintf("deterministic report row diverged:\n  want %s\n  got  %s", wantRow, gotRow)
	}
	if (want.CE == nil) != (got.CE == nil) {
		return fmt.Sprintf("counterexample presence diverged: want %v, got %v", want.CE != nil, got.CE != nil)
	}
	if want.CE != nil {
		if want.CE.Format() != got.CE.Format() {
			return fmt.Sprintf("counterexample diverged:\n  want %s\n  got  %s", want.CE.Format(), got.CE.Format())
		}
		if fmt.Sprint(want.CE.Schema) != fmt.Sprint(got.CE.Schema) {
			return fmt.Sprintf("counterexample schema context diverged: want %v, got %v", want.CE.Schema, got.CE.Schema)
		}
	}
	return ""
}

// chaosTransport fails every request while partitioned — the worker's view
// of a network partition (the coordinator side just sees silence, exactly
// like a crash, which is the point of lease-based recovery).
type chaosTransport struct {
	base        http.RoundTripper
	partitioned atomic.Bool
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.partitioned.Load() {
		return nil, fmt.Errorf("chaos: partitioned")
	}
	return t.base.RoundTrip(req)
}

// tortureWorker is one worker process stand-in: its own transport (so it can
// be partitioned alone) and its own cancel (so it can be killed alone).
type tortureWorker struct {
	w      *Worker
	cancel context.CancelFunc
	trans  *chaosTransport
	done   chan struct{}
}

// Torture runs the campaign. The reference verdict is computed once on a
// single box; every schedule must reproduce it.
func Torture(cfg TortureConfig) (TortureResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.SolverThreads <= 0 {
		cfg.SolverThreads = 2
	}
	if cfg.Events <= 0 {
		cfg.Events = 4
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 8
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}

	ref, label, err := tortureReference(cfg.Payload)
	if err != nil {
		return TortureResult{}, err
	}

	var (
		mu          sync.Mutex
		res         TortureResult
		interrupted atomic.Bool
	)
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	next := cfg.BaseSeed
	for i := 0; i < cfg.Runs; i++ {
		if cfg.Stop != nil && cfg.Stop() {
			interrupted.Store(true)
			break
		}
		seed := cfg.BaseSeed + int64(i)
		next = seed + 1
		wg.Add(1)
		sem <- struct{}{}
		go func(seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			stats, detail := tortureRun(cfg, label, ref, seed)
			mu.Lock()
			defer mu.Unlock()
			res.Runs++
			res.Kills += stats.kills
			res.Restarts += stats.restarts
			res.Partitions += stats.partitions
			res.CoordRestarts += stats.coordRestarts
			res.Reissues += stats.reissues
			res.LeasesViaReport += stats.viaReport
			if detail != "" {
				res.Violations = append(res.Violations, TortureViolation{Seed: seed, Detail: detail})
				if cfg.Verbose != nil {
					cfg.Verbose("cluster torture seed %d FAILED: %s", seed, detail)
				}
			} else if cfg.Verbose != nil {
				cfg.Verbose("cluster torture seed %d ok: %d kills, %d partitions, %d coord restarts, %d reissues",
					seed, stats.kills, stats.partitions, stats.coordRestarts, stats.reissues)
			}
		}(seed)
	}
	wg.Wait()
	res.Interrupted = interrupted.Load()
	res.NextSeed = next
	return res, nil
}

func tortureReference(p JobPayload) (schema.Result, string, error) {
	a, label, q, err := p.Resolve()
	if err != nil {
		return schema.Result{}, "", err
	}
	eng, err := schema.New(a, schema.Options{
		Mode:       schema.FullEnumeration,
		MaxSchemas: p.MaxSchemas,
		Workers:    runtime.NumCPU(),
	})
	if err != nil {
		return schema.Result{}, "", err
	}
	res, err := eng.Check(q)
	if err != nil {
		return schema.Result{}, "", err
	}
	return res, label, nil
}

type tortureStats struct {
	kills, restarts, partitions, coordRestarts, reissues int
	viaReport                                            int
}

// retire folds a coordinator's count of leases issued on reports into the
// run's as it leaves service (killed, or the run is over). Handlers of the
// run's HTTP server may still be in flight, hence the lock.
func (st *tortureStats) retire(c *Coordinator) {
	c.mu.Lock()
	st.viaReport += c.leasesViaReport
	c.mu.Unlock()
}

// tortureRun executes one seeded schedule and returns the divergence detail
// ("" = verdict identical to the reference).
func tortureRun(cfg TortureConfig, label string, ref schema.Result, seed int64) (tortureStats, string) {
	var stats tortureStats
	rng := rand.New(rand.NewSource(seed))
	memfs := wal.NewMemFS()

	newCoord := func() (*Coordinator, error) {
		return New(Config{
			LeaseTTL:       150 * time.Millisecond,
			SweepEvery:     20 * time.Millisecond,
			MaxAttempts:    8,
			ShardSize:      cfg.ShardSize,
			RetryBase:      5 * time.Millisecond,
			RetryMax:       50 * time.Millisecond,
			Seed:           seed,
			JournalDir:     "torture",
			JournalFS:      memfs,
			JournalSync:    wal.SyncNever,
			LocalWorkers:   2,
			IdleLocalAfter: 500 * time.Millisecond,
		})
	}

	coord, err := newCoord()
	if err != nil {
		return stats, fmt.Sprintf("starting coordinator: %v", err)
	}
	var cur atomic.Pointer[Coordinator]
	cur.Store(coord)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return stats, fmt.Sprintf("listening: %v", err)
	}
	// swapMu models the process boundary of a real coordinator kill: requests
	// in flight on the old incarnation must finish (or fail) before the new
	// incarnation replays the journal. Without it a zombie handler could
	// append to the journal WAL concurrently with the successor's replay —
	// impossible for separate processes, a data race in this in-process
	// harness.
	var swapMu sync.RWMutex
	hs := service.HardenServer(&http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		swapMu.RLock()
		defer swapMu.RUnlock()
		cur.Load().Handler().ServeHTTP(w, r)
	})})
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	jobID, err := coord.Submit(cfg.Payload)
	if err != nil {
		coord.Close()
		return stats, fmt.Sprintf("submitting: %v", err)
	}

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()

	var wmu sync.Mutex
	var workers []*tortureWorker
	var workerSeq int
	spawn := func() {
		wmu.Lock()
		defer wmu.Unlock()
		workerSeq++
		trans := &chaosTransport{base: http.DefaultTransport}
		w := &Worker{
			Coordinator: base,
			ID:          fmt.Sprintf("tw%d-%d", seed, workerSeq),
			Workers:     cfg.SolverThreads,
			Client: &service.HTTPClient{
				HTTP:           &http.Client{Transport: trans, Timeout: 10 * time.Second},
				MaxAttempts:    2,
				BaseDelay:      5 * time.Millisecond,
				MaxDelay:       20 * time.Millisecond,
				Seed:           seed,
				RetryTransport: true,
			},
			PollInterval: 10 * time.Millisecond,
		}
		ctx, cancel := context.WithCancel(runCtx)
		tw := &tortureWorker{w: w, cancel: cancel, trans: trans, done: make(chan struct{})}
		go func() {
			defer close(tw.done)
			w.Run(ctx)
		}()
		workers = append(workers, tw)
	}
	pickLive := func() *tortureWorker {
		wmu.Lock()
		defer wmu.Unlock()
		live := make([]*tortureWorker, 0, len(workers))
		for _, tw := range workers {
			select {
			case <-tw.done:
			default:
				live = append(live, tw)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return live[rng.Intn(len(live))]
	}
	for i := 0; i < cfg.Workers; i++ {
		spawn()
	}

	// The seeded chaos schedule. Sleeps, victims, and actions all come from
	// rng, so the schedule is a pure function of the seed.
	for e := 0; e < cfg.Events; e++ {
		time.Sleep(time.Duration(5+rng.Intn(60)) * time.Millisecond)
		if _, done, _ := cur.Load().Result(jobID); done {
			break
		}
		switch rng.Intn(4) {
		case 0: // kill a worker (SIGKILL equivalent: no report, lease dies)
			if tw := pickLive(); tw != nil {
				tw.cancel()
				stats.kills++
			}
		case 1: // kill, then restart a fresh worker after a delay
			if tw := pickLive(); tw != nil {
				tw.cancel()
				stats.kills++
				stats.restarts++
				delay := time.Duration(10+rng.Intn(100)) * time.Millisecond
				go func() {
					time.Sleep(delay)
					if runCtx.Err() == nil {
						spawn()
					}
				}()
			}
		case 2: // partition a worker for a window, then heal
			if tw := pickLive(); tw != nil {
				tw.trans.partitioned.Store(true)
				stats.partitions++
				window := time.Duration(50+rng.Intn(200)) * time.Millisecond
				go func() {
					time.Sleep(window)
					tw.trans.partitioned.Store(false)
				}()
			}
		case 3: // kill the coordinator, resume from the journal
			swapMu.Lock()
			old := cur.Load()
			old.Close()
			stats.retire(old)
			nc, err := newCoord()
			if err != nil {
				swapMu.Unlock()
				return stats, fmt.Sprintf("coordinator restart: %v", err)
			}
			cur.Store(nc)
			swapMu.Unlock()
			stats.coordRestarts++
		}
	}

	// Await the verdict. The degradation ladder guarantees completion even
	// if the schedule killed everything, so a deadline miss is a bug.
	deadline := time.Now().Add(60 * time.Second)
	var got schema.Result
	var done bool
	var jerr error
	for time.Now().Before(deadline) {
		got, done, jerr = cur.Load().Result(jobID)
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st, ok := cur.Load().StatusOf(jobID); ok {
		stats.reissues += st.Reissues
	}
	cancelRun()
	cur.Load().Close()
	stats.retire(cur.Load())
	switch {
	case !done:
		return stats, "job did not complete within 60s"
	case jerr != nil:
		return stats, fmt.Sprintf("job failed: %v", jerr)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		return stats, diff
	}
	return stats, ""
}
