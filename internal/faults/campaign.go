package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Campaign drives randomized fault mixes across many seeds, asserting the
// paper's trichotomy executably: Agreement and Validity must hold under
// *every* fault mix with f <= t; Termination must hold whenever the plan
// guarantees eventual delivery (fair plans, with retransmission enabled);
// unfair plans are exempt from the termination obligation.
//
// With Durable set it is the storage-torture campaign: every scenario is
// Durable, every correct replica logs to a fault-injectable WAL, and each
// run layers storage faults (clean kills and torn tails freely;
// amnesia-capable flips and lying fsyncs only within the fault budget t) on
// top of lighter network chaos. On top of the trichotomy, recovered replicas
// must never contradict their pre-crash messages, corrupted logs must always
// be detected (never silently accepted), and every clean replica's live
// state must equal a fresh replay of its log.
type Campaign struct {
	Runs     int
	BaseSeed int64
	N        int
	T        int

	// Protocol selects the executable front-end for every generated
	// scenario: "" or "dbft" (default), or "sba". Durable campaigns are
	// dbft-only: Validate rejects a durable sba scenario, and dbftsim
	// -torture refuses -protocol sba.
	Protocol string

	// Durable selects the storage-torture generator (see RandomScenario).
	Durable bool

	MaxRounds int // default 12
	MaxSteps  int // default 120_000
	Tick      int // default 25

	// Verbose, when set, receives one line per run.
	Verbose func(format string, args ...any)

	// Stop, when set, is polled between seeds; a true return ends the
	// campaign early with Interrupted set and NextSeed pointing at the first
	// seed not run (signal handlers use it for graceful shutdown).
	Stop func() bool

	// Workers runs up to this many seeds concurrently (0 or 1 =
	// sequential). Seeds are independent simulations; results are folded in
	// seed order over the contiguous completed prefix (sweep.Run), so the
	// aggregate — and the resume seed after an interrupt — is identical to
	// a sequential campaign. Verbose lines may interleave across seeds.
	Workers int

	// Trace, when non-nil, receives one "chaos" (or, Durable, "torture")
	// event per executed seed (steps, decided, failed). Observational only.
	Trace *obs.Tracer
}

// Violation is one failed assertion, carrying everything needed to replay
// it.
type Violation struct {
	Seed     int64
	Scenario Scenario
	Reason   string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed %d: %s\n  replay: %s", v.Seed, v.Reason, v.Scenario.Encode())
}

// CampaignResult aggregates a campaign. FairRuns and UnfairRuns split the
// runs by FairDelivery; Quarantines and ReplayChecks stay zero unless the
// campaign is Durable.
type CampaignResult struct {
	Runs       int
	FairRuns   int
	UnfairRuns int
	Decided    int
	// Quarantines counts replicas retired for an unrecoverable WAL;
	// ReplayChecks counts clean replicas whose live state was verified
	// byte-identical to a fresh replay of their WAL.
	Quarantines  int
	ReplayChecks int
	Events       map[EventKind]int
	Violations   []Violation

	// Interrupted is set when Stop ended the campaign early; NextSeed is the
	// first seed that did not run, so a rerun with -seed NextSeed resumes.
	Interrupted bool
	NextSeed    int64

	durable bool // selects the torture summary line
}

func (r CampaignResult) String() string {
	var s string
	if r.durable {
		s = fmt.Sprintf("torture: %d runs, %d decided, %d violations; %d kills, %d torn, %d flips, %d nosync, %d replays, %d quarantines, %d replay-checks",
			r.Runs, r.Decided, len(r.Violations),
			r.Events[EvKill], r.Events[EvTorn], r.Events[EvFlip], r.Events[EvNoSync],
			r.Events[EvReplay], r.Quarantines, r.ReplayChecks)
	} else {
		s = fmt.Sprintf("chaos: %d runs (%d fair, %d unfair), %d decided, %d violations; faults: %d drops, %d dups, %d delays, %d lost, %d crashes, %d recoveries",
			r.Runs, r.FairRuns, r.UnfairRuns, r.Decided, len(r.Violations),
			r.Events[EvDrop], r.Events[EvDuplicate], r.Events[EvDelay],
			r.Events[EvLost], r.Events[EvCrash], r.Events[EvRecover])
	}
	if r.Interrupted {
		s += fmt.Sprintf(" (interrupted; resume from seed %d)", r.NextSeed)
	}
	return s
}

// RandomScenario derives a random-but-replayable scenario for one seed:
// the durable torture schedule (see tortureFaults) when the campaign is
// Durable, otherwise a random fault mix (drops, duplicates, delays, a
// healing partition, crash-recovery and crash-stop windows). Either way the
// fault budget f <= t is respected by construction.
func (c Campaign) RandomScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Protocol:  c.Protocol,
		N:         c.N,
		T:         c.T,
		MaxRounds: orDefault(c.MaxRounds, 12),
		MaxSteps:  orDefault(c.MaxSteps, 120_000),
		Tick:      orDefault(c.Tick, 25),
		Sched:     "random",
		Durable:   c.Durable,
		Plan:      Plan{Seed: seed},
	}
	if c.Durable {
		c.tortureFaults(rng, &sc)
	} else {
		c.chaosFaults(rng, &sc)
	}
	return sc
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// seedRun is one executed seed: its scenario, its outcome and the reasons it
// failed (nil = passed).
type seedRun struct {
	sc      Scenario
	out     Outcome
	reasons []string
}

// Run executes the campaign. It never panics and never aborts early unless
// Stop fires: every seed runs, every violation is collected with its
// replayable scenario. With Workers > 1 seeds execute concurrently; the fold
// over results still happens in seed order (see sweep.Run), so the aggregate
// is deterministic.
func (c Campaign) Run() CampaignResult {
	recs, nextIdx, interrupted := sweep.Run(c.Runs, c.Workers, c.Stop, func(i int) seedRun {
		seed := c.BaseSeed + int64(i)
		obsCurrentSeed.Set(seed)
		sc := c.RandomScenario(seed)
		return c.record(seed, sc, sc.Run())
	})
	res := c.fold(recs)
	if interrupted {
		res.Interrupted = true
		res.NextSeed = c.BaseSeed + int64(nextIdx)
	}
	return res
}

// record checks one executed seed and emits its observational outputs: the
// seeds_run counter, the per-seed trace event and the Verbose line.
func (c Campaign) record(seed int64, sc Scenario, out Outcome) seedRun {
	obsSeedsRun.Inc()
	r := seedRun{sc: sc, out: out, reasons: check(sc, &out)}
	kind := "chaos"
	if c.Durable {
		kind = "torture"
	}
	traceSeed(c.Trace, kind, seed, &out, len(r.reasons) > 0)
	if c.Verbose != nil {
		if c.Durable {
			c.Verbose("seed %d: steps=%d decided=%v quarantined=%v replayChecked=%d faults=%v",
				seed, out.Steps, out.Decided, out.Quarantined, out.ReplayChecked, CountEvents(out.Events))
		} else {
			c.Verbose("seed %d: steps=%d decided=%v fair=%v faults=%v",
				seed, out.Steps, out.Decided, sc.Plan.FairDelivery(), CountEvents(out.Events))
		}
	}
	return r
}

// fold aggregates the seed-ordered prefix of executed seeds. A failing seed
// counts once in faults/seeds_failed and adds one Violation per reason.
func (c Campaign) fold(recs []seedRun) CampaignResult {
	res := CampaignResult{Events: map[EventKind]int{}, durable: c.Durable}
	for i, r := range recs {
		seed := c.BaseSeed + int64(i)
		res.Runs++
		if r.sc.Plan.FairDelivery() {
			res.FairRuns++
		} else {
			res.UnfairRuns++
		}
		if r.out.Decided {
			res.Decided++
		}
		res.Quarantines += len(r.out.Quarantined)
		res.ReplayChecks += r.out.ReplayChecked
		for k, n := range CountEvents(r.out.Events) {
			res.Events[k] += n
		}
		if len(r.reasons) > 0 {
			obsSeedsFailed.Inc()
		}
		for _, reason := range r.reasons {
			res.Violations = append(res.Violations, Violation{Seed: seed, Scenario: r.sc, Reason: reason})
		}
	}
	return res
}

// check is the per-seed verdict of both campaigns: every reason the outcome
// breaks a guarantee, in report order. A run error stands alone; otherwise
// Agreement, Validity, the durability oracles (whose lists are empty unless
// sc.Durable) and, for fair plans, Termination.
func check(sc Scenario, out *Outcome) []string {
	if out.Err != nil {
		return []string{fmt.Sprintf("run error: %v", out.Err)}
	}
	var reasons []string
	if out.AgreementErr != nil {
		reasons = append(reasons, fmt.Sprintf("agreement: %v", out.AgreementErr))
	}
	if out.ValidityErr != nil {
		reasons = append(reasons, fmt.Sprintf("validity: %v", out.ValidityErr))
	}
	for _, s := range out.Contradictions {
		reasons = append(reasons, fmt.Sprintf("equivocation after recovery: %s", s))
	}
	for _, s := range out.SilentCorruptions {
		reasons = append(reasons, fmt.Sprintf("silent corruption: %s", s))
	}
	for _, s := range out.ReplayErrs {
		reasons = append(reasons, fmt.Sprintf("replay divergence: %s", s))
	}
	if sc.Plan.FairDelivery() && !out.Decided {
		plan := "fair plan"
		if sc.Durable {
			plan = "fair durable plan"
		}
		reasons = append(reasons, fmt.Sprintf("termination: %s undecided after %d steps", plan, out.Steps))
	}
	return reasons
}
