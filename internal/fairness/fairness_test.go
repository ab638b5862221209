package fairness

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbft"
	"repro/internal/network"
	"repro/internal/protocol"
)

func run(t *testing.T, inputs []int, cfg protocol.Config, byz []network.Process, sched network.Scheduler) (*network.System, []*dbft.Process) {
	t.Helper()
	all := protocol.AllIDs(cfg.N)
	correct, err := dbft.Rules.Processes(cfg, inputs, all)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]network.Process, 0, cfg.N)
	for _, p := range correct {
		procs = append(procs, p)
	}
	procs = append(procs, byz...)
	sys, err := network.NewSystem(procs, sched)
	if err != nil {
		t.Fatal(err)
	}
	return sys, correct
}

// TestTerminationUnderFairScheduler is the simulator counterpart of
// Theorem 6: under the fairness-realizing scheduler, every input vector and
// every Byzantine strategy we throw at DBFT terminates, and a good round
// exists (the Definition 3 witness).
func TestTerminationUnderFairScheduler(t *testing.T) {
	byzSet := map[network.ProcID]bool{3: true}
	strategies := map[string]func(all []network.ProcID, rng *rand.Rand) network.Process{
		"silent": func(all []network.ProcID, _ *rand.Rand) network.Process {
			return &protocol.Silent{Id: 3}
		},
		"equivocator": func(all []network.ProcID, _ *rand.Rand) network.Process {
			return dbft.Lies.Equivocator(3, all, func(p network.ProcID) bool { return p == 0 })
		},
		"liar": func(all []network.ProcID, rng *rand.Rand) network.Process {
			return dbft.Lies.Liar(3, all, rng)
		},
	}
	for name, mk := range strategies {
		for bits := 0; bits < 8; bits++ {
			inputs := []int{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1}
			cfg := protocol.Config{N: 4, T: 1, MaxRounds: 12}
			rng := rand.New(rand.NewSource(int64(bits)))
			byz := mk(protocol.AllIDs(cfg.N), rng)
			sys, correct := run(t, inputs, cfg, []network.Process{byz}, Scheduler{Byzantine: byzSet})
			steps, done, err := RunToDecision(sys, correct, 500000)
			if err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Errorf("%s inputs=%v: no termination after %d steps:\n%s",
					name, inputs, steps, protocol.Describe(correct))
				continue
			}
			if err := protocol.Agreement("dbft", correct); err != nil {
				t.Errorf("%s inputs=%v: %v", name, inputs, err)
			}
			if err := protocol.Validity("dbft", correct, inputs); err != nil {
				t.Errorf("%s inputs=%v: %v", name, inputs, err)
			}
			if g := FirstGoodRound(correct, cfg.MaxRounds); g < 0 {
				t.Errorf("%s inputs=%v: terminated without a good round witness", name, inputs)
			}
		}
	}
}

// TestGoodRoundImpliesQuickDecision checks Lemma 4 + Theorem 6 empirically:
// once a round r is (r mod 2)-good, every correct process decides by round
// r+2.
func TestGoodRoundImpliesQuickDecision(t *testing.T) {
	prop := func(seed int64, bits uint8) bool {
		inputs := []int{int(bits) & 1, int(bits>>1) & 1, int(bits>>2) & 1}
		cfg := protocol.Config{N: 4, T: 1, MaxRounds: 12}
		rng := rand.New(rand.NewSource(seed))
		byz := dbft.Lies.Liar(3, protocol.AllIDs(cfg.N), rng)
		sys, correct := run(t, inputs, cfg, []network.Process{byz}, Scheduler{Byzantine: map[network.ProcID]bool{3: true}})
		_, done, err := RunToDecision(sys, correct, 500000)
		if err != nil || !done {
			return false
		}
		g := FirstGoodRound(correct, cfg.MaxRounds)
		if g < 0 {
			return false
		}
		for _, p := range correct {
			_, round, ok := p.Decided()
			if !ok || round > g+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGoodRoundDetection exercises the Definition 2 detector directly.
func TestGoodRoundDetection(t *testing.T) {
	// Unanimous value 0 in round 0: the round is 0-good, and 0 == parity.
	cfg := protocol.Config{N: 4, T: 1, MaxRounds: 6}
	sys, correct := run(t, []int{0, 0, 0}, cfg,
		[]network.Process{&protocol.Silent{Id: 3}}, network.FIFOScheduler{})
	if _, _, err := RunToDecision(sys, correct, 200000); err != nil {
		t.Fatal(err)
	}
	if !GoodRound(correct, 0) {
		t.Error("round 0 with unanimous 0 should be 0-good")
	}
	// Unanimous value 1: round 0 is 1-good but 1 != parity(0), so not a
	// fairness witness for round 0; round 1 must be.
	sys, correct = run(t, []int{1, 1, 1}, cfg,
		[]network.Process{&protocol.Silent{Id: 3}}, network.FIFOScheduler{})
	if _, _, err := RunToDecision(sys, correct, 200000); err != nil {
		t.Fatal(err)
	}
	if GoodRound(correct, 0) {
		t.Error("round 0 with unanimous 1 is 1-good, which is not the parity")
	}
	if FirstGoodRound(correct, cfg.MaxRounds) != 1 {
		t.Errorf("first good round = %d, want 1", FirstGoodRound(correct, cfg.MaxRounds))
	}
}
