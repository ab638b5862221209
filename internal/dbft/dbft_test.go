package dbft

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/protocol"
)

func buildSystem(t *testing.T, cfg Config, inputs []int, byzFactory func(id network.ProcID, all []network.ProcID) network.Process, sched network.Scheduler) (*network.System, []*Process) {
	t.Helper()
	all := protocol.AllIDs(cfg.N)
	correct, err := Processes(cfg, inputs, all)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]network.Process, 0, cfg.N)
	for _, p := range correct {
		procs = append(procs, p)
	}
	for id := len(inputs); id < cfg.N; id++ {
		procs = append(procs, byzFactory(network.ProcID(id), all))
	}
	sys, err := network.NewSystem(procs, sched)
	if err != nil {
		t.Fatal(err)
	}
	return sys, correct
}

func silentFactory(id network.ProcID, _ []network.ProcID) network.Process {
	return &protocol.Silent{Id: id}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{N: 0, T: 0, MaxRounds: 5},
		{N: 4, T: -1, MaxRounds: 5},
		{N: 4, T: 1, MaxRounds: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
	if _, err := NewProcess(0, 2, Config{N: 4, T: 1, MaxRounds: 5}, protocol.AllIDs(4)); err == nil {
		t.Error("non-binary input should be rejected")
	}
}

// TestUnanimousDecidesOwnValue: with all correct processes proposing v and
// no Byzantine interference, everyone decides v (validity + termination).
func TestUnanimousDecidesOwnValue(t *testing.T) {
	for v := 0; v <= 1; v++ {
		cfg := Config{N: 4, T: 1, MaxRounds: 10}
		inputs := []int{v, v, v}
		sys, correct := buildSystem(t, cfg, inputs, silentFactory, network.FIFOScheduler{})
		if _, err := sys.Run(100000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		if !protocol.AllDecided(correct) {
			t.Fatalf("v=%d: not all decided:\n%s", v, protocol.Describe(correct))
		}
		for _, p := range correct {
			if got, _, _ := p.Decided(); got != v {
				t.Errorf("v=%d: process %d decided %d:\n%s", v, p.ID(), got, protocol.Describe(correct))
			}
		}
		if err := protocol.Agreement("dbft", correct); err != nil {
			t.Error(err)
		}
		if err := protocol.Validity("dbft", correct, inputs); err != nil {
			t.Error(err)
		}
	}
}

// TestSplitInputsSafetyUnderRandomSchedules fuzzes schedules and Byzantine
// strategies: agreement and validity must hold on every run with f <= t.
func TestSplitInputsSafetyUnderRandomSchedules(t *testing.T) {
	prop := func(seed int64, inputBits uint8, strategy uint8) bool {
		cfg := Config{N: 4, T: 1, MaxRounds: 6}
		rng := rand.New(rand.NewSource(seed))
		inputs := []int{int(inputBits) & 1, int(inputBits>>1) & 1, int(inputBits>>2) & 1}
		all := protocol.AllIDs(cfg.N)

		var byz network.Process
		switch strategy % 3 {
		case 0:
			byz = &protocol.Silent{Id: 3}
		case 1:
			byz = Lies.Equivocator(3, all, func(p network.ProcID) bool { return p%2 == 0 })
		default:
			byz = Lies.Liar(3, all, rng)
		}
		correct, err := Processes(cfg, inputs, all)
		if err != nil {
			t.Fatal(err)
		}
		procs := []network.Process{correct[0], correct[1], correct[2], byz}
		sys, err := network.NewSystem(procs, network.RandomScheduler{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(200000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		ok := protocol.Agreement("dbft", correct) == nil && protocol.Validity("dbft", correct, inputs) == nil
		if !ok {
			t.Logf("replay with: seed=%d inputBits=%d strategy=%d", seed, inputBits, strategy)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLargerSystemSafety repeats the fuzzing at n=7, t=2, f=2.
func TestLargerSystemSafety(t *testing.T) {
	prop := func(seed int64, inputBits uint8) bool {
		cfg := Config{N: 7, T: 2, MaxRounds: 6}
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]int, 5)
		for i := range inputs {
			inputs[i] = int(inputBits>>i) & 1
		}
		all := protocol.AllIDs(cfg.N)
		correct, err := Processes(cfg, inputs, all)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]network.Process, 0, cfg.N)
		for _, p := range correct {
			procs = append(procs, p)
		}
		procs = append(procs,
			Lies.Equivocator(5, all, func(p network.ProcID) bool { return p < 3 }),
			Lies.Liar(6, all, rng),
		)
		sys, err := network.NewSystem(procs, network.RandomScheduler{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(400000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		ok := protocol.Agreement("dbft", correct) == nil && protocol.Validity("dbft", correct, inputs) == nil
		if !ok {
			t.Logf("replay with: seed=%d inputBits=%d", seed, inputBits)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDisagreementBeyondResilience demonstrates the attack the model checker
// finds when n <= 3t is allowed: with two coordinated equivocators against
// two correct processes (f = 2 > t = 1), the correct processes decide
// different values — the simulator counterpart of the Inv1_0
// counterexample of Section 6.
func TestDisagreementBeyondResilience(t *testing.T) {
	cfg := Config{N: 4, T: 1, MaxRounds: 8}
	all := protocol.AllIDs(cfg.N)
	inputs := []int{0, 1}
	correct, err := Processes(cfg, inputs, all)
	if err != nil {
		t.Fatal(err)
	}
	zeroSide := func(p network.ProcID) bool { return p == 0 }
	procs := []network.Process{
		correct[0], correct[1],
		Lies.Equivocator(2, all, zeroSide),
		Lies.Equivocator(3, all, zeroSide),
	}
	sys, err := network.NewSystem(procs, network.FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(100000, func() bool { return protocol.AllDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	if !protocol.AllDecided(correct) {
		t.Fatalf("attack did not complete:\n%s", protocol.Describe(correct))
	}
	if err := protocol.Agreement("dbft", correct); err == nil {
		t.Errorf("expected disagreement with f=2 > t=1:\n%s", protocol.Describe(correct))
	}
}

// TestLemma7NonTermination replays the Appendix B execution: without
// fairness the correct estimates cycle forever and nobody decides.
func TestLemma7NonTermination(t *testing.T) {
	const rounds = 20
	results, err := RunLemma7(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != rounds {
		t.Fatalf("got %d rounds, want %d", len(results), rounds)
	}
	for _, r := range results {
		// At the end of round r, exactly one correct process holds the
		// NEXT round's 1-parity... concretely: one process holds w = 1-q,
		// two hold q, where q = r%2.
		q := r.Round % 2
		countQ := 0
		for _, e := range r.Estimates {
			if e == q {
				countQ++
			}
		}
		if countQ != 2 {
			t.Errorf("round %d: estimates %v, want two processes holding parity %d",
				r.Round, r.Estimates, q)
		}
	}
	// Period-2 cycling of the estimate multisets.
	for i := 2; i < rounds; i++ {
		if multiset(results[i].Estimates) != multiset(results[i-2].Estimates) {
			t.Errorf("round %d multiset %v differs from round %d %v",
				i, results[i].Estimates, i-2, results[i-2].Estimates)
		}
	}
}

func multiset(es []int) [2]int {
	var m [2]int
	for _, e := range es {
		m[e]++
	}
	return m
}

// TestDeliveryOrderRecorded checks the Def. 2 instrumentation.
func TestDeliveryOrderRecorded(t *testing.T) {
	cfg := Config{N: 4, T: 1, MaxRounds: 5}
	inputs := []int{1, 1, 1}
	sys, correct := buildSystem(t, cfg, inputs, silentFactory, network.FIFOScheduler{})
	if _, err := sys.Run(100000, func() bool { return protocol.AllDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	v, good := GoodValue(correct, 0)
	if !good || v != 1 {
		t.Errorf("round 0 should be 1-good (unanimous inputs), got v=%d good=%v", v, good)
	}
}

// TestSanitizeSet: an AUX set a sender lists is recorded as its mask —
// order and repeats do not count — and one that is empty or names a value
// other than 0 and 1 is ignored: the replica's snapshot after the delivery equals that of a
// twin delivered the canonical set, or is unchanged.
func TestSanitizeSet(t *testing.T) {
	cases := []struct {
		in   []int
		want []int
	}{
		{[]int{0}, []int{0}},
		{[]int{1, 0, 1}, []int{0, 1}},
		{[]int{0, 0, 1}, []int{0, 1}}, // duplicates collapse
		{[]int{2}, nil},
		{[]int{-1}, nil}, // negative values are malformed, not an index panic
		{[]int{}, nil},
		{nil, nil},
		{[]int{1, 7}, nil},
		{[]int{0, 1, 2}, nil}, // one bad value poisons the whole set
	}
	after := func(set []int) []byte {
		p, err := NewProcess(0, 0, Config{N: 4, T: 1, MaxRounds: 3}, protocol.AllIDs(4))
		if err != nil {
			t.Fatal(err)
		}
		drop := func(network.Message) {}
		p.Start(drop)
		if set != nil {
			p.Deliver(network.Message{From: 3, Round: 0, Kind: network.MsgAux, Value: -1, Set: network.SetOf(set...)}, drop)
		}
		return p.SnapshotBytes()
	}
	for _, c := range cases {
		if !bytes.Equal(after(c.in), after(c.want)) {
			t.Errorf("AUX set %v not recorded as %v", c.in, c.want)
		}
	}
}

// TestDuplicateAuxIgnored: only a sender's first aux message counts, so a
// Byzantine process cannot stuff the favorites array: the first aux from a
// sender changes the replica's state, a second one from it does not.
func TestDuplicateAuxIgnored(t *testing.T) {
	cfg := Config{N: 4, T: 1, MaxRounds: 3}
	p, err := NewProcess(0, 0, cfg, protocol.AllIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	drop := func(network.Message) {}
	p.Start(drop)
	started := p.SnapshotBytes()
	p.Deliver(network.Message{From: 3, To: 0, Round: 0, Kind: network.MsgAux, Set: network.SetZero}, drop)
	first := p.SnapshotBytes()
	p.Deliver(network.Message{From: 3, To: 0, Round: 0, Kind: network.MsgAux, Set: network.SetOne}, drop)
	if bytes.Equal(first, started) {
		t.Error("the first aux from 3 was not recorded")
	}
	if !bytes.Equal(p.SnapshotBytes(), first) {
		t.Error("a second aux from 3 changed the replica")
	}
}

// TestHandlersIdempotentUnderDuplication proves the retransmission layer's
// core assumption: delivering every message twice changes nothing. A system
// whose send path duplicates every copy must reach exactly the decisions of
// the unmodified system.
func TestHandlersIdempotentUnderDuplication(t *testing.T) {
	run := func(duplicate bool) []*Process {
		cfg := Config{N: 4, T: 1, MaxRounds: 8}
		all := protocol.AllIDs(cfg.N)
		inputs := []int{0, 1, 1}
		correct, err := Processes(cfg, inputs, all)
		if err != nil {
			t.Fatal(err)
		}
		procs := []network.Process{correct[0], correct[1], correct[2], &protocol.Silent{Id: 3}}
		sys, err := network.NewSystem(procs, network.FIFOScheduler{})
		if err != nil {
			t.Fatal(err)
		}
		if duplicate {
			sys.SendTap = func(m *network.Message, _ uint32) []network.Stamp {
				return []network.Stamp{{Seq: m.Seq}, {Seq: m.Seq}}
			}
		}
		if _, err := sys.Run(500_000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		if !protocol.AllDecided(correct) {
			t.Fatalf("duplicate=%v: not all decided", duplicate)
		}
		return correct
	}
	base := run(false)
	doubled := run(true)
	for i := range base {
		bv, br, _ := base[i].Decided()
		dv, dr, _ := doubled[i].Decided()
		if bv != dv {
			t.Errorf("p%d: decision %d with duplication, %d without", i, dv, bv)
		}
		if br != dr {
			t.Errorf("p%d: decision round %d with duplication, %d without", i, dr, br)
		}
	}
	if err := protocol.Agreement("dbft", doubled); err != nil {
		t.Error(err)
	}
}
