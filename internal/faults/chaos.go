package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/debug"

	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sba"
)

// Scenario is one fully replayable chaos run: the consensus parameters, the
// correct inputs, the Byzantine strategies, the scheduler, and the fault
// plan. Everything an execution depends on is in here (all randomness is
// derived from Plan.Seed), so the JSON form printed on a violation replays
// the exact failing execution.
type Scenario struct {
	// Protocol selects the executable protocol front-end: "dbft" (default,
	// also "") or "sba" — the SBA* binary reduction of internal/sba.
	Protocol  string   `json:"protocol,omitempty"`
	N         int      `json:"n"`
	T         int      `json:"t"`
	MaxRounds int      `json:"max_rounds"`
	MaxSteps  int      `json:"max_steps"`
	Tick      int      `json:"tick"`            // network tick interval (retransmission clock)
	Inputs    []int    `json:"inputs"`          // correct-process inputs, ids 0..len-1
	Byz       []string `json:"byz,omitempty"`   // strategies for ids len(Inputs)..n-1
	Sched     string   `json:"sched,omitempty"` // random (default), fifo, fair, native
	// Durable gives every correct replica a write-ahead log on a
	// fault-injectable filesystem: crashes recover from disk, not from the
	// injector's memory, and Plan.Storage faults become live.
	Durable bool `json:"durable,omitempty"`
	// Sim selects the event-bus options (nil = the default bus with
	// flat-identical semantics). Sched "native" switches to the bus's
	// window-drain mode, the scale path for thousands of replicas.
	Sim  *SimOptions `json:"sim,omitempty"`
	Plan Plan        `json:"plan"`
}

// Encode renders the scenario as compact JSON.
func (sc Scenario) Encode() string {
	b, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("faults: unencodable scenario: %v", err)
	}
	return string(b)
}

// ParseScenario decodes a scenario from its JSON form. Decoding is strict —
// unknown fields, type mismatches and trailing data fail with a line:column
// diagnostic — and the decoded scenario is validated for internal
// consistency (see Validate), so a bad replay input fails fast instead of
// running a garbage campaign.
func ParseScenario(s string) (Scenario, error) {
	sc, err := parseScenarioStrict(s)
	if err != nil {
		return Scenario{}, err
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Outcome is the result of one scenario execution.
type Outcome struct {
	Steps   int
	Decided bool // every participating correct process decided
	// Participating excludes crash-stopped processes (they count as faults);
	// Procs holds every correct process for invariant checks. Exactly one of
	// the dbft and sba pairs is populated, per Scenario.Protocol (the
	// repository benchmark reads both pairs; Replicas is the protocol-blind
	// view).
	Procs            []protocol.Replica
	Participating    []protocol.Replica
	SBAProcs         []protocol.Replica
	SBAParticipating []protocol.Replica
	AgreementErr     error
	ValidityErr      error
	Err              error // run/panic error, already annotated with the scenario
	Events           []Event

	// Bus is the event-bus counter snapshot (zero on the flat backend);
	// Stalled lists peers the stall detector left flagged at run end.
	Bus     network.BusStats
	Stalled []network.ProcID

	// Durable-run results. Quarantined lists replicas retired because their
	// WAL was unrecoverable; Contradictions and SilentCorruptions are
	// oracle hits that must stay empty for a sound durability layer;
	// ReplayErrs are clean replicas whose live state differed from a fresh
	// replay of their log; ReplayChecked counts replicas that passed it.
	Quarantined       []network.ProcID
	QuarantineReasons map[network.ProcID]string
	Contradictions    []string
	SilentCorruptions []string
	ReplayErrs        []string
	ReplayChecked     int
}

// frontEnd is one executable protocol the fault plane can drive: how to
// build a correct replica, what its Byzantine processes say, and which
// Outcome field pair its replicas are published in (the frozen benchmark
// reads Participating and SBAParticipating by name; everything in this
// package goes through Outcome.Replicas).
type frontEnd struct {
	name       string
	newReplica func(sc *Scenario, id network.ProcID, input int, all []network.ProcID) (protocol.Replica, error)
	lies       protocol.Lies
	publish    func(out *Outcome, correct, participating []protocol.Replica)
}

// frontEnds is the protocol table; the first entry is what an empty
// Scenario.Protocol means. Protocols and KnownProtocols derive from it, so
// adding a front-end is adding an entry.
var frontEnds = []frontEnd{
	{
		name: "dbft",
		newReplica: func(sc *Scenario, id network.ProcID, input int, all []network.ProcID) (protocol.Replica, error) {
			return replicaOf(dbft.NewProcess(id, input, dbft.Config{N: sc.N, T: sc.T, MaxRounds: sc.MaxRounds}, all))
		},
		lies: dbft.Lies,
		publish: func(out *Outcome, correct, participating []protocol.Replica) {
			out.Procs, out.Participating = correct, participating
		},
	},
	{
		name: "sba",
		newReplica: func(sc *Scenario, id network.ProcID, input int, all []network.ProcID) (protocol.Replica, error) {
			return replicaOf(sba.NewProcess(id, input, sba.Config{N: sc.N, T: sc.T, MaxRounds: sc.MaxRounds}, all))
		},
		lies: sba.Lies,
		publish: func(out *Outcome, correct, participating []protocol.Replica) {
			out.SBAProcs, out.SBAParticipating = correct, participating
		},
	},
}

// replicaOf adapts a front-end constructor's result, keeping a failed
// construction a nil interface rather than a typed nil pointer.
func replicaOf[P protocol.Replica](p P, err error) (protocol.Replica, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// lookupFrontEnd resolves a Scenario.Protocol value.
func lookupFrontEnd(name string) (frontEnd, bool) {
	if name == "" {
		return frontEnds[0], true
	}
	for _, fe := range frontEnds {
		if fe.name == name {
			return fe, true
		}
	}
	return frontEnd{}, false
}

// Replicas is every correct process of the run, whichever protocol ran.
func (o *Outcome) Replicas() []protocol.Replica {
	if o.Procs != nil {
		return o.Procs
	}
	return o.SBAProcs
}

// Run executes the scenario. Any panic in the protocol stack or harness is
// converted into an error carrying the replayable scenario JSON — a chaos
// campaign must survive a misbehaving run, not die with it.
func (sc Scenario) Run() (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("faults: panic in scenario %s: %v\n%s", sc.Encode(), r, debug.Stack())
		}
	}()
	fail := func(err error) Outcome {
		out.Err = fmt.Errorf("faults: scenario %s: %w", sc.Encode(), err)
		return out
	}
	fe, ok := lookupFrontEnd(sc.Protocol)
	if !ok {
		return fail(fmt.Errorf("unknown protocol %q (known protocols: %s)", sc.Protocol, KnownProtocols))
	}

	all := protocol.AllIDs(sc.N)
	newReplica := func(id network.ProcID, input int) (protocol.Replica, error) {
		return fe.newReplica(&sc, id, input, all)
	}
	correct, err := protocol.Processes(sc.Inputs, newReplica)
	if err != nil {
		return fail(err)
	}
	byzSet := map[network.ProcID]bool{}
	procs := make([]network.Process, 0, sc.N)
	for _, p := range correct {
		procs = append(procs, p)
	}
	for i, strat := range sc.Byz {
		id := network.ProcID(len(sc.Inputs) + i)
		byzSet[id] = true
		p, err := fe.lies.Strategy(strat, id, all, sc.N/2, sc.Plan.Seed)
		if err != nil {
			return fail(err)
		}
		procs = append(procs, p)
	}
	if len(sc.Inputs)+len(sc.Byz) != sc.N {
		return fail(fmt.Errorf("%d inputs + %d byzantine != n=%d", len(sc.Inputs), len(sc.Byz), sc.N))
	}

	var inner network.Scheduler
	switch sc.Sched {
	case "", "random":
		inner = network.RandomScheduler{Rng: rand.New(rand.NewSource(sc.Plan.Seed + 2))}
	case "fifo":
		inner = network.FIFOScheduler{}
	case "fair":
		inner = fairness.Scheduler{Byzantine: byzSet}
	case "native":
		// Window-drain mode: the bus drains queues directly and never
		// consults a scheduler; FIFO here only satisfies the constructor.
		inner = network.FIFOScheduler{}
	default:
		return fail(fmt.Errorf("unknown scheduler %q", sc.Sched))
	}

	inj := NewInjector(sc.Plan, inner)
	if sc.Durable {
		for _, p := range correct {
			id := p.ID()
			inj.AttachStore(id, newReplicaStore(id, func() (protocol.Replica, error) { return newReplica(id, 0) },
				sc.Plan.storageFor(id), sc.Plan.Seed*1_000_003+int64(id)+11))
		}
	}
	netOpts, err := sc.networkOptions()
	if err != nil {
		return fail(err)
	}
	sys, err := network.NewSystemOpts(inj.Wrap(procs), inj, netOpts)
	if err != nil {
		return fail(err)
	}
	inj.Install(sys)
	sys.TickInterval = sc.Tick

	// Crash-stopped processes are faults: termination is owed only to the
	// others.
	stopped := map[network.ProcID]bool{}
	for _, id := range sc.Plan.CrashStops() {
		stopped[id] = true
	}
	participating := make([]protocol.Replica, 0, len(correct))
	for _, p := range correct {
		if !stopped[p.ID()] {
			participating = append(participating, p)
		}
	}

	// Termination is owed to the clean participants: risky-storage replicas
	// are Byzantine-equivalent and quarantined replicas are crash-stops, so
	// neither blocks the decided predicate.
	cleanDecided := func() bool {
		for _, p := range participating {
			if inj.Risky(p.ID()) || inj.IsQuarantined(p.ID()) {
				continue
			}
			if _, _, ok := p.Decided(); !ok {
				return false
			}
		}
		return true
	}

	steps, err := sys.Run(sc.MaxSteps, cleanDecided)
	out.Steps = steps
	fe.publish(&out, correct, participating)
	out.Events = inj.Log
	out.Bus = sys.BusStats()
	out.Stalled = sys.Stalled()
	if err != nil {
		return fail(err)
	}
	out.Decided = cleanDecided()
	// Safety invariants are checked over every correct process, including
	// crash-stopped ones: whatever they decided before dying must agree.
	// Risky-storage replicas are the exception — amnesia makes them
	// Byzantine-equivalent, and the fault budget already accounts for them.
	safetySet := correct
	if sc.Durable {
		safetySet = make([]protocol.Replica, 0, len(correct))
		for _, p := range correct {
			if !inj.Risky(p.ID()) {
				safetySet = append(safetySet, p)
			}
		}
	}
	out.AgreementErr = protocol.Agreement(fe.name, safetySet)
	out.ValidityErr = protocol.Validity(fe.name, safetySet, sc.Inputs)
	if sc.Durable {
		sc.checkDurable(inj, &out)
	}
	return out
}

// checkDurable runs the post-run durability oracles: quarantine accounting,
// the equivocation and flip oracles accumulated during the run, and the
// byte-identical replay check — every clean, up-to-date replica's live state
// must equal a fresh rebuild from nothing but its log.
func (sc Scenario) checkDurable(inj *Injector, out *Outcome) {
	out.Quarantined = inj.Quarantined()
	out.QuarantineReasons = inj.quarantined
	out.Contradictions = inj.Contradictions
	out.SilentCorruptions = inj.SilentCorruptions
	for _, p := range out.Replicas() {
		st := inj.stores[p.ID()]
		if st == nil || st.log == nil || st.dirty ||
			inj.Risky(p.ID()) || inj.IsQuarantined(p.ID()) || inj.downNow(p.ID()) {
			continue
		}
		fp, err := st.replayFingerprint()
		if err != nil {
			out.ReplayErrs = append(out.ReplayErrs, fmt.Sprintf("p%d: replay: %v", p.ID(), err))
			continue
		}
		if !bytes.Equal(fp, p.SnapshotBytes()) {
			out.ReplayErrs = append(out.ReplayErrs,
				fmt.Sprintf("p%d: recovered state differs from fresh replay of its log", p.ID()))
			continue
		}
		out.ReplayChecked++
	}
}

// Campaign drives randomized fault mixes across many seeds, asserting the
// paper's trichotomy executably: Agreement and Validity must hold under
// *every* fault mix with f <= t; Termination must hold whenever the plan
// guarantees eventual delivery (fair plans, with retransmission enabled);
// unfair plans are exempt from the termination obligation.
type Campaign struct {
	Runs     int
	BaseSeed int64
	N        int
	T        int

	// Protocol selects the executable front-end for every generated
	// scenario: "" or "dbft" (default), or "sba".
	Protocol string

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
	// seed order over the contiguous completed prefix, so the aggregate —
	// and the resume seed after an interrupt — is identical to a sequential
	// campaign. Verbose lines may interleave across seeds.
	Workers int

	// Trace, when non-nil, receives one "chaos" event per executed seed
	// (steps, decided, failed). Observational only.
	Trace *obs.Tracer

	// Sim, when non-nil, is attached to every generated scenario — the
	// hook for running a whole campaign on a specific simulator backend
	// (flat shim vs. bus) or bus configuration.
	Sim *SimOptions
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

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Runs       int
	FairRuns   int
	UnfairRuns int
	Decided    int
	Events     map[EventKind]int
	Violations []Violation

	// Interrupted is set when Stop ended the campaign early; NextSeed is the
	// first seed that did not run, so a rerun with -seed NextSeed resumes.
	Interrupted bool
	NextSeed    int64
}

func (r CampaignResult) String() string {
	s := fmt.Sprintf("chaos: %d runs (%d fair, %d unfair), %d decided, %d violations; faults: %d drops, %d dups, %d delays, %d lost, %d crashes, %d recoveries",
		r.Runs, r.FairRuns, r.UnfairRuns, r.Decided, len(r.Violations),
		r.Events[EvDrop], r.Events[EvDuplicate], r.Events[EvDelay],
		r.Events[EvLost], r.Events[EvCrash], r.Events[EvRecover])
	if r.Interrupted {
		s += fmt.Sprintf(" (interrupted; resume from seed %d)", r.NextSeed)
	}
	return s
}

// RandomScenario derives a random-but-replayable scenario for one seed: a
// random fault mix (drops, duplicates, delays, a healing partition,
// crash-recovery and crash-stop windows) with the fault budget f <= t
// respected by construction.
func (c Campaign) RandomScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Protocol:  c.Protocol,
		N:         c.N,
		T:         c.T,
		MaxRounds: c.maxRounds(),
		MaxSteps:  c.maxSteps(),
		Tick:      c.tick(),
		Sched:     "random",
		Sim:       c.Sim,
		Plan:      Plan{Seed: seed},
	}

	// Fault budget: Byzantine processes and crash-stops together stay <= t.
	budget := c.T
	nByz := 0
	if budget > 0 && rng.Intn(2) == 0 {
		nByz = 1 + rng.Intn(budget)
		budget -= nByz
	}
	for i := 0; i < nByz; i++ {
		sc.Byz = append(sc.Byz, protocol.Strategies[rng.Intn(len(protocol.Strategies))])
	}
	nCorrect := c.N - nByz
	sc.Inputs = make([]int, nCorrect)
	for i := range sc.Inputs {
		sc.Inputs[i] = rng.Intn(2)
	}

	// Lossy-but-fair links: bounded per-message drop budget, so eventual
	// delivery survives by construction given retransmission.
	if rng.Intn(4) > 0 {
		sc.Plan.Drops = []DropRule{{
			Prob:   0.1 + 0.3*rng.Float64(),
			Budget: 1 + rng.Intn(2),
		}}
	}
	if rng.Intn(2) == 0 {
		sc.Plan.DupProb = 0.1 + 0.2*rng.Float64()
		sc.Plan.DupBudget = 1 + rng.Intn(2)
	}
	if rng.Intn(2) == 0 {
		sc.Plan.DelayProb = 0.1 + 0.3*rng.Float64()
		sc.Plan.DelaySteps = 20 + rng.Intn(150)
	}
	// Windowed faults must land where the consensus actually executes:
	// decisions for the sizes we campaign over arrive within a couple of
	// thousand steps, so windows scheduled beyond that would never fire.
	const horizon = 2000
	if rng.Intn(2) == 0 {
		start := 1 + rng.Intn(horizon/2)
		size := 1 + rng.Intn(c.N-1)
		group := make([]network.ProcID, 0, size)
		for _, id := range rng.Perm(c.N)[:size] {
			group = append(group, network.ProcID(id))
		}
		sc.Plan.Partitions = []Partition{{
			Start:  start,
			Heal:   start + 100 + rng.Intn(horizon/2),
			GroupA: group,
		}}
	}
	// Crash-recovery window on a random correct replica (does not consume
	// fault budget: it is correct, just amnesiac-but-persistent).
	if rng.Intn(2) == 0 {
		at := 1 + rng.Intn(horizon/2)
		sc.Plan.Crashes = append(sc.Plan.Crashes, Crash{
			Proc:    network.ProcID(rng.Intn(nCorrect)),
			At:      at,
			Recover: at + 100 + rng.Intn(horizon/4),
		})
	}
	// Crash-stop within the remaining fault budget, on a correct replica
	// not already crash-recovering.
	if budget > 0 && rng.Intn(3) == 0 {
		used := map[network.ProcID]bool{}
		for _, cr := range sc.Plan.Crashes {
			used[cr.Proc] = true
		}
		var candidates []network.ProcID
		for i := 0; i < nCorrect; i++ {
			if !used[network.ProcID(i)] {
				candidates = append(candidates, network.ProcID(i))
			}
		}
		if len(candidates) > 0 {
			sc.Plan.Crashes = append(sc.Plan.Crashes, Crash{
				Proc:    candidates[rng.Intn(len(candidates))],
				At:      1 + rng.Intn(horizon),
				Recover: -1,
			})
		}
	}
	return sc
}

func (c Campaign) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 12
}

func (c Campaign) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return 120_000
}

func (c Campaign) tick() int {
	if c.Tick > 0 {
		return c.Tick
	}
	return 25
}

// Run executes the campaign. It never panics and never aborts early: every
// seed runs, every violation is collected with its replayable scenario.
// With Workers > 1 seeds execute concurrently; the fold over results still
// happens in seed order (see runIndexed), so the aggregate is deterministic.
func (c Campaign) Run() CampaignResult {
	type chaosRun struct {
		sc  Scenario
		out Outcome
	}
	recs, nextIdx, interrupted := runIndexed(c.Runs, c.Workers, c.Stop, func(i int) chaosRun {
		seed := c.BaseSeed + int64(i)
		obsCurrentSeed.Set(seed)
		sc := c.RandomScenario(seed)
		out := sc.Run()
		obsSeedsRun.Inc()
		traceSeed(c.Trace, "chaos", seed, &out)
		if c.Verbose != nil {
			c.Verbose("seed %d: steps=%d decided=%v fair=%v faults=%v",
				seed, out.Steps, out.Decided, sc.Plan.FairDelivery(), CountEvents(out.Events))
		}
		return chaosRun{sc: sc, out: out}
	})

	res := CampaignResult{Events: map[EventKind]int{}}
	for i, r := range recs {
		seed := c.BaseSeed + int64(i)
		out := r.out
		res.Runs++
		fair := r.sc.Plan.FairDelivery()
		if fair {
			res.FairRuns++
		} else {
			res.UnfairRuns++
		}
		if out.Decided {
			res.Decided++
		}
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
			if fair && !out.Decided {
				fail(fmt.Sprintf("termination: fair plan undecided after %d steps", out.Steps))
			}
		}
	}
	if interrupted {
		res.Interrupted = true
		res.NextSeed = c.BaseSeed + int64(nextIdx)
	}
	return res
}
