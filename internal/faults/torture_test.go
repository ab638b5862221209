package faults

import (
	"fmt"
	"testing"
)

// TestTortureCampaign is the acceptance gate of the durability layer: at
// least 200 seeded kill/corrupt/restart schedules with zero violations —
// Agreement, Validity, no post-recovery equivocation, no silently accepted
// corruption, and byte-identical WAL replays throughout.
func TestTortureCampaign(t *testing.T) {
	runs := 250
	if testing.Short() {
		runs = 40
	}
	c := Campaign{Runs: runs, BaseSeed: 6000, N: 4, T: 1, Durable: true}
	res := c.Run()
	if res.Runs != runs {
		t.Fatalf("ran %d of %d", res.Runs, runs)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if t.Failed() {
		t.FailNow()
	}
	// The campaign must actually exercise every failure mode, not pass
	// vacuously.
	for _, k := range []EventKind{EvKill, EvTorn, EvReplay, EvRecover} {
		if res.Events[k] == 0 {
			t.Errorf("no %s events across %d runs", k, runs)
		}
	}
	if !testing.Short() {
		for _, k := range []EventKind{EvFlip, EvNoSync} {
			if res.Events[k] == 0 {
				t.Errorf("no %s events across %d runs", k, runs)
			}
		}
		if res.Quarantines == 0 {
			t.Error("no quarantine across the campaign: corruption detection path untested")
		}
	}
	if res.ReplayChecks == 0 {
		t.Error("no byte-identical replay check ever ran")
	}
	if res.Decided < res.Runs*9/10 {
		t.Errorf("only %d/%d runs decided", res.Decided, res.Runs)
	}
	t.Logf("%s", res)
}

// TestSBADurableTorture is the storage-torture gate over the sba rules
// value: the same kill/corrupt/restart schedules as the dbft campaign, with
// the equivocation oracle reading CAND. The (7,2) leg is the one a
// release-before-persist fault in the durable path trips; (4,1) alone
// passes it.
func TestSBADurableTorture(t *testing.T) {
	for _, c := range []Campaign{
		{Protocol: "sba", Runs: 200, BaseSeed: 1, N: 4, T: 1, Durable: true, Workers: 4},
		{Protocol: "sba", Runs: 200, BaseSeed: 1, N: 7, T: 2, Durable: true, Workers: 4},
	} {
		res := c.Run()
		for _, v := range res.Violations {
			t.Errorf("n=%d t=%d: %s", c.N, c.T, v)
		}
		if res.Runs != c.Runs || res.ReplayChecks == 0 || res.Quarantines == 0 {
			t.Errorf("n=%d t=%d: %s", c.N, c.T, res)
		}
		t.Logf("n=%d t=%d: %s", c.N, c.T, res)
	}
}

// TestTortureStop: the Stop hook ends the campaign between runs with
// partial results and a resumable seed.
func TestTortureStop(t *testing.T) {
	n := 0
	c := Campaign{
		Runs: 50, BaseSeed: 100, N: 4, T: 1, Durable: true,
		Stop: func() bool { n++; return n > 3 },
	}
	res := c.Run()
	if !res.Interrupted {
		t.Fatal("campaign was not interrupted")
	}
	if res.Runs != 3 {
		t.Fatalf("expected 3 completed runs, got %d", res.Runs)
	}
	if res.NextSeed != 103 {
		t.Fatalf("resume seed = %d, want 103", res.NextSeed)
	}
}

// TestTortureScenarioReplayable: a torture scenario replays bit-identically
// from its JSON — the property every violation report relies on.
func TestTortureScenarioReplayable(t *testing.T) {
	c := Campaign{N: 4, T: 1, Durable: true}
	for seed := int64(0); seed < 10; seed++ {
		sc := c.RandomScenario(6000 + seed)
		back, err := ParseScenario(sc.Encode())
		if err != nil {
			t.Fatal(err)
		}
		a, b := sc.Run(), back.Run()
		if fmt.Sprint(a.Steps, a.Decided, len(a.Events)) != fmt.Sprint(b.Steps, b.Decided, len(b.Events)) {
			t.Fatalf("seed %d: replay diverged: %d/%v/%d vs %d/%v/%d", seed,
				a.Steps, a.Decided, len(a.Events), b.Steps, b.Decided, len(b.Events))
		}
	}
}
