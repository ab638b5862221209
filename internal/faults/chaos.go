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
	// Sim selects the event-bus options (nil = the reliable, unbounded
	// full-mesh bus). Sched "native" switches to the bus's window-drain
	// mode, the scale path for thousands of replicas.
	Sim  *SimOptions `json:"sim,omitempty"`
	Plan Plan        `json:"plan"`

	// wrap, when set, wraps the processes the System is built from, around
	// the injector's crash wrappers: the hook tests watch deliveries through.
	wrap func([]network.Process) []network.Process
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

	// Bus is the event-bus counter snapshot; Stalled lists peers the stall
	// detector left flagged at run end.
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

// frontEnd is one executable protocol the fault plane can drive: its rules
// value (name, message kinds and the constructor of its correct replicas),
// the Lies its Byzantine processes tell, and which Outcome field pair its
// replicas are published in (the frozen benchmark reads Participating and
// SBAParticipating by name; everything in this package goes through
// Outcome.Replicas).
type frontEnd struct {
	rules   *protocol.BinaryRules
	lies    protocol.Lies
	publish func(out *Outcome, correct, participating []protocol.Replica)
}

// frontEnds is the protocol table; the first entry is what an empty
// Scenario.Protocol means. Protocols and KnownProtocols derive from it, so
// adding a front-end is adding an entry.
var frontEnds = []frontEnd{
	{
		rules: &dbft.Rules,
		lies:  dbft.Lies,
		publish: func(out *Outcome, correct, participating []protocol.Replica) {
			out.Procs, out.Participating = correct, participating
		},
	},
	{
		rules: &sba.Rules,
		lies:  sba.Lies,
		publish: func(out *Outcome, correct, participating []protocol.Replica) {
			out.SBAProcs, out.SBAParticipating = correct, participating
		},
	},
}

// Schedulers is the scheduler vocabulary of scenarios and of dbftsim's
// single runs: each name builds its scheduler from the run's seed and its
// Byzantine set. An empty Scenario.Sched means "random". "native" builds
// nil: the bus drains its queues in windows and consults no scheduler.
var Schedulers = map[string]func(seed int64, byz map[network.ProcID]bool) network.Scheduler{
	"random": func(seed int64, _ map[network.ProcID]bool) network.Scheduler {
		return network.RandomScheduler{Rng: rand.New(rand.NewSource(seed + 2))}
	},
	"fifo": func(int64, map[network.ProcID]bool) network.Scheduler { return network.FIFOScheduler{} },
	"fair": func(_ int64, byz map[network.ProcID]bool) network.Scheduler {
		return fairness.Scheduler{Byzantine: byz}
	},
	"native": func(int64, map[network.ProcID]bool) network.Scheduler { return nil },
}

// lookupFrontEnd resolves a Scenario.Protocol value.
func lookupFrontEnd(name string) (frontEnd, bool) {
	if name == "" {
		return frontEnds[0], true
	}
	for _, fe := range frontEnds {
		if fe.rules.Name == name {
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

	cfg := protocol.Config{N: sc.N, T: sc.T, MaxRounds: sc.MaxRounds}
	all := protocol.AllIDs(sc.N)
	replicas, err := fe.rules.Processes(cfg, sc.Inputs, all)
	if err != nil {
		return fail(err)
	}
	byzSet := map[network.ProcID]bool{}
	correct := make([]protocol.Replica, 0, len(replicas))
	procs := make([]network.Process, 0, sc.N)
	for _, p := range replicas {
		correct = append(correct, p)
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

	schedName := sc.Sched
	if schedName == "" {
		schedName = "random"
	}
	newSched, ok := Schedulers[schedName]
	if !ok {
		return fail(fmt.Errorf("unknown scheduler %q", sc.Sched))
	}

	inj := NewInjector(sc.Plan)
	if sc.Durable {
		inj.rules = fe.rules
		for _, p := range correct {
			id := p.ID()
			inj.AttachStore(id, newReplicaStore(id, func() (*protocol.Binary, error) { return fe.rules.NewProcess(id, 0, cfg, all) },
				sc.Plan.storageFor(id), sc.Plan.Seed*1_000_003+int64(id)+11))
		}
	}
	netOpts, err := sc.networkOptions()
	if err != nil {
		return fail(err)
	}
	sysProcs := inj.Wrap(procs)
	if sc.wrap != nil {
		sysProcs = sc.wrap(sysProcs)
	}
	sys, err := network.NewSystemOpts(sysProcs, newSched(sc.Plan.Seed, byzSet), netOpts)
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
	out.Events = inj.Events()
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
	out.AgreementErr = protocol.Agreement(fe.rules.Name, safetySet)
	out.ValidityErr = protocol.Validity(fe.rules.Name, safetySet, sc.Inputs)
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

// chaosFaults draws the chaos campaign's Byzantine set, inputs and fault
// plan into sc.
func (c Campaign) chaosFaults(rng *rand.Rand, sc *Scenario) {
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
}
