package faults

import (
	"strings"
	"testing"
)

// TestSBACampaignTrichotomy runs the randomized chaos campaign over the sba
// front-end: agreement and validity must hold under every fault mix with
// f <= t, and fair plans must terminate — the same executable trichotomy the
// dbft campaign asserts.
func TestSBACampaignTrichotomy(t *testing.T) {
	c := Campaign{Protocol: "sba", Runs: 60, BaseSeed: 7000, N: 4, T: 1}
	res := c.Run()
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	}
	if res.Decided == 0 {
		t.Error("no run decided; campaign is not exercising the protocol")
	}
}

// TestSBACampaignLargerSystem repeats the trichotomy at n=7, t=2.
func TestSBACampaignLargerSystem(t *testing.T) {
	c := Campaign{Protocol: "sba", Runs: 25, BaseSeed: 7100, N: 7, T: 2}
	res := c.Run()
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestSBAFingerprintFlatVsBus: a seeded sba scenario must produce on the bus
// the fingerprint the flat backend produced.
func TestSBAFingerprintFlatVsBus(t *testing.T) {
	flat := flatFingerprints(t)
	c := Campaign{Protocol: "sba", N: 4, T: 1}
	for seed := int64(7200); seed < 7215; seed++ {
		sc := c.RandomScenario(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		busOut := sc.Run()
		if busOut.Err != nil {
			t.Fatalf("seed %d: bus err=%v", seed, busOut.Err)
		}
		busFP := sc.Fingerprint(&busOut)
		if want := flatFingerprint(t, flat, "sba", seed); busFP != want {
			t.Errorf("seed %d: fingerprint mismatch\n bus:  %s\n flat: %s", seed, busFP, want)
		}
	}
}

// TestSBAFingerprintWorkerIndependence: campaign aggregates and per-seed
// fingerprints must not depend on the worker count.
func TestSBAFingerprintWorkerIndependence(t *testing.T) {
	fps := func(workers int) []string {
		c := Campaign{Protocol: "sba", N: 4, T: 1, Workers: workers}
		var out []string
		for seed := int64(7300); seed < 7320; seed++ {
			sc := c.RandomScenario(seed)
			o := sc.Run()
			if o.Err != nil {
				t.Fatalf("seed %d: %v", seed, o.Err)
			}
			out = append(out, sc.Fingerprint(&o))
		}
		return out
	}
	a, b := fps(1), fps(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seed %d: fingerprint differs across worker counts", 7300+i)
		}
	}
}

// TestSBAScenarioCrashRecovery: the generalized volatile snapshot path must
// bring an sba replica back with its pre-crash state (and the run must still
// decide and agree).
func TestSBAScenarioCrashRecovery(t *testing.T) {
	sc := Scenario{
		Protocol:  "sba",
		N:         4,
		T:         1,
		MaxRounds: 12,
		MaxSteps:  120000,
		Tick:      25,
		Inputs:    []int{1, 0, 1},
		Byz:       []string{"silent"},
		Sched:     "random",
		Plan: Plan{
			Seed:    42,
			Crashes: []Crash{{Proc: 0, At: 40, Recover: 400}},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	out := sc.Run()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("agreement=%v validity=%v", out.AgreementErr, out.ValidityErr)
	}
	if !out.Decided {
		t.Fatalf("crash-recovery run undecided after %d steps", out.Steps)
	}
	counts := CountEvents(out.Events)
	if counts[EvCrash] == 0 || counts[EvRecover] == 0 {
		t.Errorf("crash window did not fire: %v", counts)
	}
}

// TestSBAValidateRejections: the sba front-end rejects dbft-only scenario
// features with field-specific errors.
func TestSBAValidateRejections(t *testing.T) {
	base := Scenario{
		Protocol: "sba", N: 4, T: 1, MaxRounds: 8, MaxSteps: 1000, Tick: 25,
		Inputs: []int{0, 1, 1, 0},
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"durable", func(sc *Scenario) { sc.Durable = true }, "dbft-only"},
		{"storage", func(sc *Scenario) {
			sc.Durable = true
			sc.Plan.Storage = []StorageFault{{Proc: 0, Kind: StoreKill, Append: 1}}
		}, "storage faults are dbft-only"},
		{"parity_bv", func(sc *Scenario) {
			sc.Plan.Drops = []DropRule{{ParityBV: true, Prob: 1, Budget: -1}}
		}, "parity-BV drops are dbft-only"},
		{"bv_kind", func(sc *Scenario) {
			sc.Plan.Drops = []DropRule{{Kind: "BV", Prob: 0.5, Budget: 1}}
		}, "want VOTE or CAND"},
		{"bad_protocol", func(sc *Scenario) { sc.Protocol = "pbft" }, "known protocols: dbft, sba"},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	// VOTE/CAND drop kinds are accepted for sba.
	sc := base
	sc.Plan.Drops = []DropRule{{Kind: "VOTE", Prob: 0.5, Budget: 1}, {Kind: "CAND", Prob: 0.5, Budget: 1}}
	if err := sc.Validate(); err != nil {
		t.Errorf("VOTE/CAND drops should validate for sba: %v", err)
	}
}
