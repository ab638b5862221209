package faults

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/network"
	"repro/internal/protocol"
)

// echoProc counts deliveries; used to probe the injector mechanics without
// the consensus stack.
type echoProc struct {
	id       network.ProcID
	got      []network.Message
	gotSteps []int
	sys      *network.System
}

func (p *echoProc) ID() network.ProcID        { return p.id }
func (p *echoProc) Start(send network.Sender) {}
func (p *echoProc) Deliver(m network.Message, send network.Sender) {
	p.got = append(p.got, m)
	if p.sys != nil {
		p.gotSteps = append(p.gotSteps, p.sys.Steps)
	}
}

func TestDropBudgetBoundsLoss(t *testing.T) {
	// A rule with budget 2 may eat at most two copies of the same logical
	// message, no matter how often it is retransmitted.
	plan := Plan{Seed: 1, Drops: []DropRule{{Prob: 1, Budget: 2}}}
	inj := NewInjector(plan)
	recv := &echoProc{id: 1}
	sender := &echoProc{id: 0}
	sys, err := network.NewSystem(inj.Wrap([]network.Process{sender, recv}), network.FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(sys)

	m := network.Message{From: 0, To: 1, Kind: network.MsgBV, Value: 1}
	for i := 0; i < 5; i++ {
		sys.Inject(m)
	}
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(recv.got) != 3 {
		t.Fatalf("budget 2 with 5 sends: want 3 deliveries, got %d (log:\n%s)",
			len(recv.got), FormatEvents(inj.Events(), 0))
	}
	if n := CountEvents(inj.Events())[EvDrop]; n != 2 {
		t.Fatalf("want 2 drop events, got %d", n)
	}
}

// TestDropBudgetsPerCopy holds SendTap's budgets on a stream of sends in
// which every (receiver, content) pair is retransmitted many times, over
// receivers and content ids that make the injector's tally bitsets grow and
// receivers outside the range they cover. Under a catch-all Budget 0 rule
// listed first, a certain Budget 2 rule drops exactly the first two copies
// of each pair and none after, a Budget 2 rule at probability one half
// never more than two, and a kind only the Budget 0 rule matches is never
// dropped.
func TestDropBudgetsPerCopy(t *testing.T) {
	inj := NewInjector(Plan{Seed: 3, Drops: []DropRule{
		{Prob: 1, Budget: 0},
		{Kind: "BV", Prob: 1, Budget: 2},
		{Kind: "VOTE", Prob: 0.5, Budget: 2},
	}})
	kinds := []network.MsgKind{network.MsgBV, network.MsgVote, network.MsgAux}
	receivers := []network.ProcID{-3, talliedReceivers, talliedReceivers + 5}
	for to := network.ProcID(0); to < 300; to += 7 {
		receivers = append(receivers, to)
	}
	type pair struct {
		to network.ProcID
		id uint32
	}
	sent, drops := map[pair]int{}, map[pair]int{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40_000; i++ {
		id := uint32(rng.Intn(700))
		m := network.Message{From: network.ProcID(id % 5), To: receivers[rng.Intn(len(receivers))],
			Kind: kinds[id%3], Round: int(id)}
		k := pair{m.To, id}
		stamps := inj.SendTap(&m, id)
		if len(stamps) == 0 {
			drops[k]++
		}
		sent[k]++
		switch m.Kind {
		case network.MsgBV:
			if want := min(sent[k], 2); drops[k] != want {
				t.Fatalf("BV to %d, content %d: %d drops after %d sends, want %d", m.To, id, drops[k], sent[k], want)
			}
		case network.MsgVote:
			if drops[k] > 2 {
				t.Fatalf("VOTE to %d, content %d: %d drops, budget 2", m.To, id, drops[k])
			}
		case network.MsgAux:
			if drops[k] != 0 {
				t.Fatalf("AUX to %d, content %d dropped under a Budget 0 rule", m.To, id)
			}
		}
	}
	votes := 0
	for k, n := range drops {
		if kinds[k.id%3] == network.MsgVote && n == 2 {
			votes++
		}
	}
	if votes == 0 {
		t.Fatal("no VOTE pair used its whole budget: the stream exercises nothing")
	}
}

func TestUnboundedDropIsUnfair(t *testing.T) {
	fair := Plan{Drops: []DropRule{{Prob: 0.5, Budget: 3}}, Partitions: []Partition{{Start: 1, Heal: 10}}}
	if !fair.FairDelivery() {
		t.Error("bounded drops + healing partition should be fair")
	}
	for _, p := range []Plan{
		{Drops: []DropRule{{Prob: 1, Budget: -1}}},
		{Partitions: []Partition{{Start: 1, Heal: -1}}},
		UnfairParityDrop(7),
	} {
		if p.FairDelivery() {
			t.Errorf("plan %s should be unfair", p.Encode())
		}
	}
}

func TestPartitionHoldsThenHeals(t *testing.T) {
	// A cut between {0} and {1} holds the message; the injector ticks time
	// forward until the heal step, after which delivery happens.
	plan := Plan{Seed: 1, Partitions: []Partition{{Start: 0, Heal: 40, GroupA: []network.ProcID{0}}}}
	inj := NewInjector(plan)
	recv := &echoProc{id: 1}
	sender := &echoProc{id: 0}
	sys, err := network.NewSystem(inj.Wrap([]network.Process{sender, recv}), network.FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(sys)
	recv.sys = sys
	sys.Inject(network.Message{From: 0, To: 1, Kind: network.MsgBV, Value: 1})
	if _, err := sys.Run(100, func() bool { return len(recv.got) == 1 }); err != nil {
		t.Fatal(err)
	}
	if len(recv.got) != 1 {
		t.Fatal("message never delivered after heal")
	}
	if got := recv.gotSteps[0]; got < 40 {
		t.Fatalf("delivered at step %d, before the heal step 40", got)
	}
}

// TestSchedulerChoiceUnderInjector: with the fault plane installed, a
// scheduler's Tick still only advances time, and a choice past the end of
// its view is a reported error instead of a tick that burns the step budget.
func TestSchedulerChoiceUnderInjector(t *testing.T) {
	run := func(sched network.FuncScheduler) (*echoProc, int, error) {
		inj := NewInjector(Plan{Seed: 1})
		recv := &echoProc{id: 1}
		sys, err := network.NewSystem(inj.Wrap([]network.Process{&echoProc{id: 0}, recv}), sched)
		if err != nil {
			t.Fatal(err)
		}
		inj.Install(sys)
		recv.sys = sys
		sys.Inject(network.Message{From: 0, To: 1, Kind: network.MsgBV, Value: 1})
		steps, err := sys.Run(100, nil)
		return recv, steps, err
	}
	recv, _, err := run(func(view []network.Message, step int) int {
		if step < 5 {
			return network.Tick
		}
		return 0
	})
	if err != nil || len(recv.got) != 1 || recv.gotSteps[0] != 6 {
		t.Fatalf("ticking scheduler: err=%v, delivered at steps %v, want one delivery at step 6", err, recv.gotSteps)
	}
	_, steps, err := run(func(view []network.Message, _ int) int { return len(view) })
	if err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("out-of-range choice ran %d steps with err=%v, want an out-of-range error", steps, err)
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := Plan{
		Seed:       42,
		Drops:      []DropRule{{Kind: "BV", ParityBV: true, Prob: 0.5, Budget: 2}},
		DupProb:    0.25,
		DupBudget:  2,
		DelayProb:  0.1,
		DelaySteps: 50,
		Partitions: []Partition{{Start: 10, Heal: 99, GroupA: []network.ProcID{0, 2}}},
		Crashes:    []Crash{{Proc: 1, At: 5, Recover: 80}, {Proc: 2, At: 7, Recover: -1}},
	}
	q, err := ParsePlan(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if q.Encode() != p.Encode() {
		t.Fatalf("round trip mismatch:\n%s\n%s", p.Encode(), q.Encode())
	}
	if got := q.CrashStops(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("crash stops: got %v", got)
	}
}

// consensusScenario is a helper building a 4-process, 1-fault scenario with
// the given plan.
func consensusScenario(plan Plan, inputs []int, byz []string, sched string, maxSteps int) Scenario {
	return Scenario{
		N: 4, T: 1, MaxRounds: 12, MaxSteps: maxSteps, Tick: 25,
		Inputs: inputs, Byz: byz, Sched: sched, Plan: plan,
	}
}

func TestConsensusSurvivesLossyLinks(t *testing.T) {
	// Bounded loss + duplication + delay, no Byzantine process: every fair
	// plan must reach a decision thanks to retransmission, with safety
	// intact.
	plan := Plan{
		Seed:       3,
		Drops:      []DropRule{{Prob: 0.3, Budget: 2}},
		DupProb:    0.2,
		DupBudget:  2,
		DelayProb:  0.3,
		DelaySteps: 60,
	}
	sc := consensusScenario(plan, []int{0, 1, 1, 0}, nil, "random", 120_000)
	out := sc.Run()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Decided {
		t.Fatalf("seed %d: no decision after %d steps under a fair plan\nfaults: %v",
			plan.Seed, out.Steps, CountEvents(out.Events))
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("seed %d: safety violated: %v %v", plan.Seed, out.AgreementErr, out.ValidityErr)
	}
}

func TestCrashRecoveryRejoins(t *testing.T) {
	// Replica 0 crashes early and recovers much later: it must reboot from
	// its snapshot, catch up via peer retransmission, and still decide.
	plan := Plan{Seed: 5, Crashes: []Crash{{Proc: 0, At: 10, Recover: 2000}}}
	sc := consensusScenario(plan, []int{1, 0, 1, 0}, nil, "random", 200_000)
	out := sc.Run()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	counts := CountEvents(out.Events)
	if counts[EvCrash] == 0 || counts[EvRecover] == 0 {
		t.Fatalf("crash window never exercised: %v", counts)
	}
	if counts[EvLost] == 0 {
		t.Fatalf("expected deliveries lost during the crash window: %v", counts)
	}
	if !out.Decided {
		t.Fatalf("recovered replica prevented decision (steps=%d, faults=%v)", out.Steps, counts)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety violated across crash-recovery: %v %v", out.AgreementErr, out.ValidityErr)
	}
}

func TestCrashStopWithinBudgetStillDecides(t *testing.T) {
	// One crash-stop consumes the whole fault budget (t=1): the three
	// survivors must still decide.
	plan := Plan{Seed: 8, Crashes: []Crash{{Proc: 2, At: 15, Recover: -1}}}
	sc := consensusScenario(plan, []int{1, 1, 0, 0}, nil, "random", 200_000)
	out := sc.Run()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Participating) != 3 {
		t.Fatalf("want 3 participating processes, got %d", len(out.Participating))
	}
	if !out.Decided {
		t.Fatalf("survivors failed to decide after %d steps", out.Steps)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety violated: %v %v", out.AgreementErr, out.ValidityErr)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// Drive a process through part of a consensus, snapshot it, keep
	// mutating the original, restore into the copy: the restored state must
	// match the snapshot point, and replaying the same messages must be
	// idempotent.
	cfg := dbft.Config{N: 4, T: 1, MaxRounds: 8}
	all := protocol.AllIDs(4)
	p, err := dbft.NewProcess(0, 1, cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	var sent []network.Message
	send := func(m network.Message) { sent = append(sent, m) }
	p.Start(send)
	msgs := []network.Message{
		{From: 1, To: 0, Round: 0, Kind: network.MsgBV, Value: 1},
		{From: 2, To: 0, Round: 0, Kind: network.MsgBV, Value: 1},
		{From: 3, To: 0, Round: 0, Kind: network.MsgBV, Value: 1},
	}
	for _, m := range msgs {
		p.Deliver(m, send)
	}
	snap := p.SnapshotBytes()
	preRound, preEst := p.Round(), p.Estimate()

	// Mutate past the snapshot point.
	p.Deliver(network.Message{From: 1, To: 0, Round: 0, Kind: network.MsgAux, Set: network.SetOne}, send)
	if err := p.RestoreBytes(snap); err != nil {
		t.Fatal(err)
	}
	if p.Round() != preRound || p.Estimate() != preEst {
		t.Fatalf("restore: round/est = %d/%d, want %d/%d", p.Round(), p.Estimate(), preRound, preEst)
	}
	// Replaying already-seen messages must not change state (idempotence).
	before := protocol.Describe([]*dbft.Process{p})
	for _, m := range msgs {
		p.Deliver(m, send)
	}
	if after := protocol.Describe([]*dbft.Process{p}); after != before {
		t.Fatalf("replay after restore changed state:\n%s\nvs\n%s", before, after)
	}
}

func TestUnfairPlanLivelocksLikeLemma7(t *testing.T) {
	// The scripted unfair plan drops every parity-valued BV copy forever:
	// no round can become good, so — as in Lemma 7 — no correct process
	// ever decides, while Agreement and Validity hold vacuously.
	plan := UnfairParityDrop(11)
	sc := consensusScenario(plan, []int{0, 1, 1}, []string{"silent"}, "random", 50_000)
	out := sc.Run()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Decided {
		t.Fatalf("unfair plan terminated — it must livelock (plan %s)", plan.Encode())
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety must hold even without termination: %v %v", out.AgreementErr, out.ValidityErr)
	}
	if n := CountEvents(out.Events)[EvDrop]; n == 0 {
		t.Fatal("the unfair plan never dropped anything")
	}
	// The fairness witness of Definition 2/3 must be absent: that is what
	// forecloses Theorem 6.
	procs := make([]*dbft.Process, len(out.Procs))
	for i, p := range out.Procs {
		procs[i] = p.(*dbft.Process)
	}
	if g := fairness.FirstGoodRound(procs, sc.MaxRounds); g >= 0 {
		t.Fatalf("unfair plan produced a good round %d", g)
	}
}

func TestScenarioReplayIsDeterministic(t *testing.T) {
	c := Campaign{Runs: 1, BaseSeed: 77, N: 4, T: 1}
	sc := c.RandomScenario(77)
	enc := sc.Encode()
	sc2, err := ParseScenario(enc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sc.Run(), sc2.Run()
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Steps != b.Steps || a.Decided != b.Decided || len(a.Events) != len(b.Events) {
		t.Fatalf("replay diverged: steps %d/%d decided %v/%v events %d/%d",
			a.Steps, b.Steps, a.Decided, b.Decided, len(a.Events), len(b.Events))
	}
	if al, bl := FormatEvents(a.Events, 0), FormatEvents(b.Events, 0); al != bl {
		t.Fatalf("fault log diverged:\n%s\nvs\n%s", al, bl)
	}
}

// panicProc blows up on its first delivery.
type panicProc struct{ id network.ProcID }

func (p *panicProc) ID() network.ProcID                             { return p.id }
func (p *panicProc) Start(send network.Sender)                      {}
func (p *panicProc) Deliver(m network.Message, send network.Sender) { panic("boom") }

func TestRunConvertsPanicsToErrors(t *testing.T) {
	sys, err := network.NewSystem([]network.Process{
		&echoProc{id: 0}, &panicProc{id: 1},
	}, network.FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Inject(network.Message{From: 0, To: 1, Kind: network.MsgBV})
	if _, err := sys.Run(10, nil); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

func TestCampaignSurvivesPanickingRun(t *testing.T) {
	// A scenario whose stack panics must surface as a violation carrying
	// the replayable scenario, not crash the campaign. Exercised via a
	// direct Scenario.Run with an invalid configuration path.
	sc := Scenario{N: 4, T: 1, MaxRounds: 8, MaxSteps: 100, Tick: 10,
		Inputs: []int{0, 1}, Byz: []string{"nonsense", "silent"}, Plan: Plan{Seed: 1}}
	out := sc.Run()
	if out.Err == nil || !strings.Contains(out.Err.Error(), "nonsense") {
		t.Fatalf("want strategy error, got %v", out.Err)
	}
	if !strings.Contains(out.Err.Error(), `"n":4`) {
		t.Fatalf("error must carry the replayable scenario, got %v", out.Err)
	}
}
