package sba_test

// Cross-validation of the executable sba simulator against the shipped
// threshold-automaton spec, dbft-style: the TA verdicts are computed once
// from specs/sba.ta (the literal file the verification plane consumes, parsed
// back through taformat — not the in-memory builder), and every outcome of a
// seeded chaos campaign is then checked for consistency with them:
//
//   - TA agreement holds  ⇒ no simulator run may report an agreement error.
//   - TA validity holds   ⇒ no simulator run may report a validity error.
//   - TA termination holds ⇒ every fair-delivery plan must decide.
//   - The automaton's round structure (parity-0 half decides 0, parity-1
//     half decides 1) must show in every decision: decidedRound % 2 == bit.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/taformat"
)

const crossvalSeeds = 120

// taVerdicts solves every sba query against the shipped spec file and
// returns name -> outcome.
func taVerdicts(t *testing.T) map[string]spec.Outcome {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", "sba.ta"))
	if err != nil {
		t.Fatalf("shipped spec missing: %v", err)
	}
	a, err := taformat.Parse(string(data))
	if err != nil {
		t.Fatalf("specs/sba.ta does not parse: %v", err)
	}
	qs, err := models.Named("sba").Queries(a)
	if err != nil {
		t.Fatalf("building queries against the parsed spec: %v", err)
	}
	engine, err := schema.New(a, schema.Options{Mode: schema.Staged})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string]spec.Outcome, len(qs))
	for i := range qs {
		res, err := engine.Check(&qs[i])
		if err != nil {
			t.Fatalf("%s: %v", qs[i].Name, err)
		}
		verdicts[qs[i].Name] = res.Outcome
	}
	return verdicts
}

func TestCrossValidateSimulatorAgainstSpec(t *testing.T) {
	verdicts := taVerdicts(t)
	for _, name := range []string{"Inv1_0", "Inv1_1", "Inv2_0", "Inv2_1", "SBARoundTerm"} {
		if verdicts[name] != spec.Holds {
			t.Fatalf("TA verdict for %s is %v; the cross-validation below assumes it holds", name, verdicts[name])
		}
	}
	agreement := verdicts["Inv1_0"] == spec.Holds && verdicts["Inv1_1"] == spec.Holds
	validity := verdicts["Inv2_0"] == spec.Holds && verdicts["Inv2_1"] == spec.Holds
	termination := verdicts["SBARoundTerm"] == spec.Holds

	c := faults.Campaign{Protocol: "sba", N: 4, T: 1}
	decided := 0
	for seed := int64(9000); seed < 9000+crossvalSeeds; seed++ {
		sc := c.RandomScenario(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		out := sc.Run()
		if out.Err != nil {
			t.Fatalf("seed %d: %v", seed, out.Err)
		}

		// Safety: the simulator may never contradict a Holds verdict.
		if agreement && out.AgreementErr != nil {
			t.Errorf("seed %d: TA proves agreement but the simulator violated it: %v", seed, out.AgreementErr)
		}
		if validity && out.ValidityErr != nil {
			t.Errorf("seed %d: TA proves validity but the simulator violated it: %v", seed, out.ValidityErr)
		}
		// Liveness: fair-delivery plans must terminate.
		if termination && sc.Plan.FairDelivery() && !out.Decided {
			t.Errorf("seed %d: TA proves round termination and the plan is fair, but the run stalled after %d steps", seed, out.Steps)
		}
		// Round structure: decisions happen in the half whose parity matches
		// the bit (D0 in parity-0 rounds, D1x in parity-1 rounds).
		unanimous := -1
		if v := sc.Inputs[0]; len(sc.Byz) == 0 {
			unanimous = v
			for _, w := range sc.Inputs {
				if w != v {
					unanimous = -1
					break
				}
			}
		}
		for _, p := range out.SBAParticipating {
			v, round, ok := p.Decided()
			if !ok {
				continue
			}
			if v != 0 && v != 1 {
				t.Errorf("seed %d: p%d decided non-binary value %d", seed, p.ID(), v)
			}
			if round%2 != v {
				t.Errorf("seed %d: p%d decided %d in round %d — parity contradicts the automaton's half structure", seed, p.ID(), v, round)
			}
			if unanimous >= 0 && v != unanimous {
				t.Errorf("seed %d: unanimous input %d but p%d decided %d", seed, unanimous, p.ID(), v)
			}
		}
		if out.Decided {
			decided++
		}
	}
	if decided == 0 {
		t.Error("no run decided across the campaign; the harness is not exercising the protocol")
	}
	t.Logf("cross-validated %d seeded schedules (%d decided) against specs/sba.ta verdicts", crossvalSeeds, decided)
}
