package cluster

import (
	"testing"
)

// TestTortureCampaign drives seeded kill/restart/partition/coordinator-crash
// schedules against a live cluster and requires every run's verdict to be
// byte-identical to the single-box reference. Short mode runs a dozen
// schedules; the full run covers 100+ so lease expiry, reissue backoff, and
// journal resume all see real traffic. Each violation logs its seed — rerun
// with BaseSeed=<seed>, Runs=1 to replay that schedule exactly.
func TestTortureCampaign(t *testing.T) {
	cfg := TortureConfig{
		Payload:  JobPayload{Model: "bv", Prop: "BV-Just0"},
		Runs:     100,
		BaseSeed: 1,
		Parallel: 8,
		Verbose:  t.Logf,
	}
	if testing.Short() {
		cfg.Runs, cfg.Parallel = 12, 4
	}
	res, err := Torture(cfg)
	if err != nil {
		t.Fatalf("torture campaign: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("cluster torture violation: %s (replay: BaseSeed=%d Runs=1)", v, v.Seed)
	}
	if res.Reissues == 0 {
		t.Errorf("campaign drove no shard reissues; schedules never exercised lease recovery")
	}
	// After a worker's first shard every lease it holds rode on a report's
	// response, so these are the leases the kills, partitions and coordinator
	// restarts above hit (TestLeaseExpiryReissueDeterminism loses one on
	// purpose).
	if res.LeasesViaReport == 0 {
		t.Errorf("no lease rode on a report's response; the campaign never exercised the combined round trip")
	}
	t.Log(res.String())
}

// TestTortureToyWithCE runs a smaller campaign against the toy model whose
// verdict is Violated: this pins counterexample bytes (params, run, schema
// text) across crash schedules, not just the Unsat fold.
func TestTortureToyWithCE(t *testing.T) {
	cfg := TortureConfig{
		Payload:   JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"},
		Runs:      24,
		BaseSeed:  7_000,
		ShardSize: 1,
		Parallel:  4,
	}
	if testing.Short() {
		cfg.Runs = 6
	}
	res, err := Torture(cfg)
	if err != nil {
		t.Fatalf("torture campaign: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("toy torture violation: %s (replay: BaseSeed=%d Runs=1)", v, v.Seed)
	}
	t.Log(res.String())
}
