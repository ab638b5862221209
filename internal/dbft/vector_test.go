package dbft_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/network"
	"repro/internal/protocol"
)

func vectorSystem(t *testing.T, cfg dbft.Config, proposals []string, byz []network.Process, sched network.Scheduler) (*network.System, []*dbft.VectorProcess) {
	t.Helper()
	all := protocol.AllIDs(cfg.N)
	var correct []*dbft.VectorProcess
	procs := make([]network.Process, 0, cfg.N)
	for i, prop := range proposals {
		p, err := dbft.NewVectorProcess(network.ProcID(i), prop, cfg, all)
		if err != nil {
			t.Fatal(err)
		}
		correct = append(correct, p)
		procs = append(procs, p)
	}
	procs = append(procs, byz...)
	sys, err := network.NewSystem(procs, sched)
	if err != nil {
		t.Fatal(err)
	}
	return sys, correct
}

func fairSched(byzIDs ...network.ProcID) network.Scheduler {
	m := map[network.ProcID]bool{}
	for _, id := range byzIDs {
		m[id] = true
	}
	return fairness.Scheduler{Byzantine: m}
}

// TestVectorAllCorrect: with every process correct, the decided vector
// contains at least n-t proposals and all processes agree.
func TestVectorAllCorrect(t *testing.T) {
	cfg := dbft.Config{N: 4, T: 1, MaxRounds: 14}
	proposals := []string{"tx-a", "tx-b", "tx-c", "tx-d"}
	sys, correct := vectorSystem(t, cfg, proposals, nil, fairSched())
	if _, err := sys.Run(2_000_000, func() bool { return dbft.AllVectorDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	if !dbft.AllVectorDecided(correct) {
		t.Fatalf("not all decided; inflight=%d", sys.Inflight())
	}
	if err := dbft.VectorAgreement(correct); err != nil {
		t.Fatal(err)
	}
	if err := dbft.VectorValidity(correct, proposals, nil); err != nil {
		t.Fatal(err)
	}
	out, _ := correct[0].Decided()
	if len(out) < cfg.N-cfg.T {
		t.Errorf("output %v has %d entries, want >= n-t = %d", out, len(out), cfg.N-cfg.T)
	}
}

// TestVectorWithSilentByzantine: a silent proposer's instance decides 0 and
// its slot is simply absent from the output.
func TestVectorWithSilentByzantine(t *testing.T) {
	cfg := dbft.Config{N: 4, T: 1, MaxRounds: 14}
	proposals := []string{"a", "b", "c"}
	sys, correct := vectorSystem(t, cfg, proposals,
		[]network.Process{&protocol.Silent{Id: 3}}, fairSched(3))
	if _, err := sys.Run(2_000_000, func() bool { return dbft.AllVectorDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	if !dbft.AllVectorDecided(correct) {
		t.Fatal("not all decided")
	}
	if err := dbft.VectorAgreement(correct); err != nil {
		t.Fatal(err)
	}
	if err := dbft.VectorValidity(correct, proposals, nil); err != nil {
		t.Fatal(err)
	}
	out, _ := correct[0].Decided()
	if len(out) < 3 {
		t.Errorf("output %v, want the three correct proposals", out)
	}
}

// TestVectorAgreementUnderRandomSchedules fuzzes the vector consensus with
// random schedules: whatever terminates must agree, and outputs contain only
// proposed values.
func TestVectorAgreementUnderRandomSchedules(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := dbft.Config{N: 4, T: 1, MaxRounds: 10}
		proposals := []string{"p0", "p1", "p2", "p3"}
		rng := rand.New(rand.NewSource(seed))
		sys, correct := vectorSystem(t, cfg, proposals, nil, network.RandomScheduler{Rng: rng})
		if _, err := sys.Run(400_000, func() bool { return dbft.AllVectorDecided(correct) }); err != nil {
			t.Fatal(err)
		}
		ok := dbft.VectorAgreement(correct) == nil &&
			dbft.VectorValidity(correct, proposals, nil) == nil
		if !ok {
			t.Logf("replay with: seed=%d", seed)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestVectorLargerSystem runs n=7, t=2 with one silent and one equivocating
// Byzantine process.
func TestVectorLargerSystem(t *testing.T) {
	cfg := dbft.Config{N: 7, T: 2, MaxRounds: 16}
	proposals := []string{"a", "b", "c", "d", "e"}
	all := protocol.AllIDs(cfg.N)
	byz := []network.Process{
		&protocol.Silent{Id: 5},
		dbft.Lies.Equivocator(6, all, func(p network.ProcID) bool { return p < 3 }),
	}
	sys, correct := vectorSystem(t, cfg, proposals, byz, fairSched(5, 6))
	if _, err := sys.Run(5_000_000, func() bool { return dbft.AllVectorDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	if !dbft.AllVectorDecided(correct) {
		t.Fatal("not all decided")
	}
	if err := dbft.VectorAgreement(correct); err != nil {
		t.Fatal(err)
	}
	if err := dbft.VectorValidity(correct, proposals, func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	out, _ := correct[0].Decided()
	if len(out) < cfg.N-cfg.T-2 { // the two Byzantine slots may be absent
		t.Errorf("output %v too small", out)
	}
}

// TestVectorWithEquivocatingProposer exercises the RBC echo quorum through
// the full vector consensus at n=5 (where a 2t+1 echo threshold would split
// deliveries): an equivocating Byzantine proposer must not produce
// disagreeing vectors.
func TestVectorWithEquivocatingProposer(t *testing.T) {
	cfg := dbft.Config{N: 5, T: 1, MaxRounds: 14}
	proposals := []string{"a", "b", "c", "d"}
	all := protocol.AllIDs(cfg.N)
	byz := []network.Process{
		dbft.Lies.Equivocator(4, all, func(p network.ProcID) bool { return p < 2 }),
	}
	sys, correct := vectorSystem(t, cfg, proposals, byz, fairSched(4))
	if _, err := sys.Run(5_000_000, func() bool { return dbft.AllVectorDecided(correct) }); err != nil {
		t.Fatal(err)
	}
	if !dbft.AllVectorDecided(correct) {
		t.Fatal("not all decided")
	}
	if err := dbft.VectorAgreement(correct); err != nil {
		t.Fatal(err)
	}
	if err := dbft.VectorValidity(correct, proposals, func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
}
