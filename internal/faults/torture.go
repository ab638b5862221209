package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TortureCampaign drives seeded kill/corrupt/restart schedules against
// durable replicas: every scenario is Durable, every correct replica logs to
// a fault-injectable WAL, and each run layers storage faults (clean kills and
// torn tails freely; amnesia-capable flips and lying fsyncs only within the
// fault budget t) on top of the usual network chaos. The assertions are the
// acceptance bar of the durability layer: Agreement and Validity always hold
// over clean replicas, recovered replicas never contradict their pre-crash
// messages, corrupted logs are always detected (never silently accepted),
// and every clean replica's live state equals a fresh replay of its log.
type TortureCampaign struct {
	Runs     int
	BaseSeed int64
	N        int
	T        int

	MaxRounds int // default 12
	MaxSteps  int // default 120_000
	Tick      int // default 25

	// Verbose, when set, receives one line per run.
	Verbose func(format string, args ...any)
	// Stop, when set, is polled between runs; a true return ends the
	// campaign early with partial results (the signal-handling hook).
	Stop func() bool
	// Workers runs seeds concurrently (0 or 1 = sequential). Results are
	// folded in seed order over the contiguous completed prefix, so the
	// aggregate — and the NextSeed resume point — is the same at any worker
	// count. Verbose lines may interleave.
	Workers int

	// Trace, when non-nil, receives one "torture" event per executed seed
	// (steps, decided, failed). Observational only.
	Trace *obs.Tracer

	// Sim, when non-nil, selects the network backend for every generated
	// scenario (bus options, topology, native drain tuning). Durable runs
	// require Partitions <= 1; Validate enforces this.
	Sim *SimOptions
}

// TortureResult aggregates a torture campaign.
type TortureResult struct {
	Runs        int
	Decided     int
	Quarantines int
	// ReplayChecks counts clean replicas whose live state was verified
	// byte-identical to a fresh replay of their WAL.
	ReplayChecks int
	Events       map[EventKind]int
	Violations   []Violation
	// Interrupted is set when Stop ended the campaign early; NextSeed is
	// where a resumed campaign should continue.
	Interrupted bool
	NextSeed    int64
}

func (r TortureResult) String() string {
	s := fmt.Sprintf("torture: %d runs, %d decided, %d violations; %d kills, %d torn, %d flips, %d nosync, %d replays, %d quarantines, %d replay-checks",
		r.Runs, r.Decided, len(r.Violations),
		r.Events[EvKill], r.Events[EvTorn], r.Events[EvFlip], r.Events[EvNoSync],
		r.Events[EvReplay], r.Quarantines, r.ReplayChecks)
	if r.Interrupted {
		s += fmt.Sprintf(" (interrupted; resume from seed %d)", r.NextSeed)
	}
	return s
}

func (c TortureCampaign) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 12
}

func (c TortureCampaign) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return 120_000
}

func (c TortureCampaign) tick() int {
	if c.Tick > 0 {
		return c.Tick
	}
	return 25
}

// RandomScenario derives one replayable durable scenario: light network
// chaos, step-scheduled crash-recovery windows (which now recover from
// disk), one to three clean write-point kills, and — within the remaining
// fault budget — one amnesia-capable fault. The budget rule mirrors the
// paper's resilience bound: Byzantine processes, crash-stops and
// amnesia-capable replicas together never exceed t.
func (c TortureCampaign) RandomScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		N:         c.N,
		T:         c.T,
		MaxRounds: c.maxRounds(),
		MaxSteps:  c.maxSteps(),
		Tick:      c.tick(),
		Sched:     "random",
		Durable:   true,
		Sim:       c.Sim,
		Plan:      Plan{Seed: seed},
	}

	budget := c.T
	nByz := 0
	if budget > 0 && rng.Intn(3) == 0 {
		nByz = 1
		budget--
	}
	for i := 0; i < nByz; i++ {
		sc.Byz = append(sc.Byz, protocol.Strategies[rng.Intn(len(protocol.Strategies))])
	}
	nCorrect := c.N - nByz
	sc.Inputs = make([]int, nCorrect)
	for i := range sc.Inputs {
		sc.Inputs[i] = rng.Intn(2)
	}

	// Light network chaos so recovery happens under loss and reordering,
	// always fair (bounded budgets) — the termination assertion stays live.
	if rng.Intn(3) == 0 {
		sc.Plan.Drops = []DropRule{{Prob: 0.05 + 0.15*rng.Float64(), Budget: 1}}
	}
	if rng.Intn(3) == 0 {
		sc.Plan.DupProb = 0.1 + 0.2*rng.Float64()
		sc.Plan.DupBudget = 1
	}
	if rng.Intn(3) == 0 {
		sc.Plan.DelayProb = 0.1 + 0.2*rng.Float64()
		sc.Plan.DelaySteps = 20 + rng.Intn(100)
	}
	// Step-scheduled crash-recovery window: with Durable set this is the
	// tentpole path — reboot from the WAL, not from injector memory. Quiet
	// durable runs decide within a few hundred steps, so windows are early
	// and short enough to land inside the execution.
	if rng.Intn(2) == 0 {
		at := 1 + rng.Intn(300)
		sc.Plan.Crashes = append(sc.Plan.Crashes, Crash{
			Proc:    network.ProcID(rng.Intn(nCorrect)),
			At:      at,
			Recover: at + 30 + rng.Intn(300),
		})
	}

	// Clean write-point kills: free, any number of replicas, because
	// persist-before-release keeps their recovery inside the correct-process
	// envelope.
	kills := 1 + rng.Intn(3)
	for i := 0; i < kills; i++ {
		kind := StoreKill
		if rng.Intn(2) == 0 {
			kind = StoreTorn
		}
		sc.Plan.Storage = append(sc.Plan.Storage, StorageFault{
			Proc:    network.ProcID(rng.Intn(nCorrect)),
			Append:  1 + rng.Intn(30),
			Kind:    kind,
			Recover: 5 + rng.Intn(200),
		})
	}
	// One amnesia-capable fault within the remaining budget: bit rot or a
	// lying fsync. Its replica is Byzantine-equivalent from that point on.
	if budget > 0 && rng.Intn(2) == 0 {
		kind := StoreFlip
		if rng.Intn(2) == 0 {
			kind = StoreNoSync
		}
		// Short down-windows: a risky replica is excluded from the decided
		// predicate, so only an early recovery exercises the detection and
		// re-join paths before the clean replicas finish.
		sc.Plan.Storage = append(sc.Plan.Storage, StorageFault{
			Proc:      network.ProcID(rng.Intn(nCorrect)),
			Append:    1 + rng.Intn(20),
			Kind:      kind,
			Recover:   5 + rng.Intn(60),
			KillAfter: 1 + rng.Intn(5),
		})
	}
	return sc
}

// Run executes the campaign. Every violation carries its replayable seed and
// scenario JSON; Stop ends it early with partial results. With Workers > 1
// seeds execute concurrently; the fold over results still happens in seed
// order (see runIndexed), so the aggregate is deterministic.
func (c TortureCampaign) Run() TortureResult {
	type tortureRun struct {
		sc  Scenario
		out Outcome
	}
	recs, nextIdx, interrupted := runIndexed(c.Runs, c.Workers, c.Stop, func(i int) tortureRun {
		seed := c.BaseSeed + int64(i)
		obsCurrentSeed.Set(seed)
		sc := c.RandomScenario(seed)
		out := sc.Run()
		obsSeedsRun.Inc()
		traceSeed(c.Trace, "torture", seed, &out)
		if c.Verbose != nil {
			c.Verbose("seed %d: steps=%d decided=%v quarantined=%v replayChecked=%d faults=%v",
				seed, out.Steps, out.Decided, out.Quarantined, out.ReplayChecked, CountEvents(out.Events))
		}
		return tortureRun{sc: sc, out: out}
	})

	res := TortureResult{Events: map[EventKind]int{}}
	for i, r := range recs {
		seed := c.BaseSeed + int64(i)
		out := r.out
		res.Runs++
		if out.Decided {
			res.Decided++
		}
		res.Quarantines += len(out.Quarantined)
		res.ReplayChecks += out.ReplayChecked
		for k, n := range CountEvents(out.Events) {
			res.Events[k] += n
		}
		fail := func(reason string) {
			obsSeedsFailed.Inc()
			res.Violations = append(res.Violations, Violation{Seed: seed, Scenario: r.sc, Reason: reason})
		}
		switch {
		case out.Err != nil:
			fail(fmt.Sprintf("run error: %v", out.Err))
		default:
			if out.AgreementErr != nil {
				fail(fmt.Sprintf("agreement: %v", out.AgreementErr))
			}
			if out.ValidityErr != nil {
				fail(fmt.Sprintf("validity: %v", out.ValidityErr))
			}
			for _, s := range out.Contradictions {
				fail(fmt.Sprintf("equivocation after recovery: %s", s))
			}
			for _, s := range out.SilentCorruptions {
				fail(fmt.Sprintf("silent corruption: %s", s))
			}
			for _, s := range out.ReplayErrs {
				fail(fmt.Sprintf("replay divergence: %s", s))
			}
			if r.sc.Plan.FairDelivery() && !out.Decided {
				fail(fmt.Sprintf("termination: fair durable plan undecided after %d steps", out.Steps))
			}
		}
	}
	if interrupted {
		res.Interrupted = true
		res.NextSeed = c.BaseSeed + int64(nextIdx)
	}
	return res
}
