package sba

import (
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
		{N: 6, T: 2, MaxRounds: 5}, // n <= 3t
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
	if _, err := NewProcess(0, 2, Config{N: 4, T: 1, MaxRounds: 5}, protocol.AllIDs(4)); err == nil {
		t.Error("non-binary input should be rejected")
	}
}

// TestUnanimousReducesToOwnValue: with all correct processes proposing v and
// no Byzantine interference the reduction returns v at the first round with
// parity v (strong validity + termination).
func TestUnanimousReducesToOwnValue(t *testing.T) {
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
			got, round, _ := p.Decided()
			if got != v {
				t.Errorf("v=%d: process %d reduced to %d:\n%s", v, p.ID(), got, protocol.Describe(correct))
			}
			// Under unanimity only v ever locks, so the first v-parity round
			// decides: round v itself.
			if round != v {
				t.Errorf("v=%d: process %d decided at round %d, want %d", v, p.ID(), round, v)
			}
		}
		if err := protocol.Agreement("sba", correct); err != nil {
			t.Error(err)
		}
		if err := protocol.Validity("sba", correct, inputs); err != nil {
			t.Error(err)
		}
	}
}

// TestDecidedRoundParityMatchesBit: a process only decides b at a round with
// parity b — the rotating-default decide rule.
func TestDecidedRoundParityMatchesBit(t *testing.T) {
	prop := func(seed int64, inputBits uint8) bool {
		cfg := Config{N: 4, T: 1, MaxRounds: 8}
		rng := rand.New(rand.NewSource(seed))
		inputs := []int{int(inputBits) & 1, int(inputBits>>1) & 1, int(inputBits>>2) & 1}
		sys, correct := buildSystem(t, cfg, inputs, silentFactory, network.RandomScheduler{Rng: rng})
		if _, err := sys.Run(200000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		for _, p := range correct {
			if v, r, ok := p.Decided(); ok && v != r%2 {
				t.Logf("process %d decided %d at round %d", p.ID(), v, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
		ok := protocol.Agreement("sba", correct) == nil && protocol.Validity("sba", correct, inputs) == nil
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
		ok := protocol.Agreement("sba", correct) == nil && protocol.Validity("sba", correct, inputs) == nil
		if !ok {
			t.Logf("replay with: seed=%d inputBits=%d", seed, inputBits)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDisagreementBeyondResilience: with two coordinated equivocators
// against two correct processes (f = 2 > t = 1) the reduction can return
// different bits — the simulator counterpart of the violated-resilience TA
// counterexample, and the reason Config.Validate pins n > 3t for correct
// deployments.
func TestDisagreementBeyondResilience(t *testing.T) {
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		cfg := Config{N: 4, T: 1, MaxRounds: 8}
		all := protocol.AllIDs(cfg.N)
		inputs := []int{0, 1}
		correct, err := Processes(cfg, inputs, all)
		if err != nil {
			t.Fatal(err)
		}
		zeroSide := func(p network.ProcID) bool { return p == 0 }
		rng := rand.New(rand.NewSource(seed))
		procs := []network.Process{
			correct[0], correct[1],
			Lies.Equivocator(2, all, zeroSide),
			Lies.Equivocator(3, all, zeroSide),
		}
		sys, err := network.NewSystem(procs, network.RandomScheduler{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100000, func() bool { return protocol.AllDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		if protocol.AllDecided(correct) && protocol.Agreement("sba", correct) != nil {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one disagreement schedule with f=2 > t=1")
	}
}

// TestMalformedContentIgnored: out-of-range values and unknown kinds do not
// corrupt state or panic.
func TestMalformedContentIgnored(t *testing.T) {
	cfg := Config{N: 4, T: 1, MaxRounds: 5}
	p, err := NewProcess(0, 1, cfg, protocol.AllIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	drop := func(network.Message) {}
	p.Start(drop)
	for _, m := range []network.Message{
		{From: 1, Round: 0, Kind: network.MsgVote, Value: 2},
		{From: 1, Round: 0, Kind: network.MsgVote, Value: -1},
		{From: 1, Round: 0, Kind: network.MsgCand, Value: 7},
		{From: 1, Round: -3, Kind: network.MsgVote, Value: 1},
		{From: 1, Round: 99, Kind: network.MsgVote, Value: 1},
		{From: 1, Round: 0, Kind: network.MsgBV, Value: 1},
	} {
		p.Deliver(m, drop)
	}
	st := p.state(0)
	if st.voteSenders[0].Len() != 0 || st.voteSenders[1].Len() != 0 || st.candidates.Len() != 0 {
		t.Errorf("malformed messages mutated round state: %+v", st)
	}
}

// TestSnapshotRestoreEquivalence: a process restored from its snapshot
// behaves identically — drive two copies through the same suffix and
// compare canonical encodings.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	cfg := Config{N: 4, T: 1, MaxRounds: 6}
	all := protocol.AllIDs(4)
	mk := func() *Process {
		p, err := NewProcess(0, 1, cfg, all)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	drop := func(network.Message) {}
	script := []network.Message{
		{From: 1, Round: 0, Kind: network.MsgVote, Value: 1},
		{From: 2, Round: 0, Kind: network.MsgVote, Value: 1},
		{From: 3, Round: 0, Kind: network.MsgVote, Value: 0},
		{From: 1, Round: 0, Kind: network.MsgCand, Value: 1},
		{From: 2, Round: 0, Kind: network.MsgCand, Value: 1},
		{From: 3, Round: 1, Kind: network.MsgVote, Value: 0},
	}
	a, b := mk(), mk()
	a.Start(drop)
	b.Start(drop)
	for i, m := range script {
		a.Deliver(m, drop)
		b.Deliver(m, drop)
		if i == 2 { // crash/recover b mid-run
			b2 := mk()
			if err := b2.RestoreBytes(b.SnapshotBytes()); err != nil {
				t.Fatal(err)
			}
			b = b2
		}
	}
	ea, eb := a.SnapshotBytes(), b.SnapshotBytes()
	if string(ea) != string(eb) {
		t.Errorf("restored process diverged:\n a=%x\n b=%x", ea, eb)
	}
}
