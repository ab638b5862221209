package core

import (
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/ta"
)

// TestGadgetJusticeTraceability pins down the soundness argument of the
// decomposition: every fairness assumption the outer (simplified) automaton
// makes about its bv-broadcast gadget corresponds to a property that phase 1
// actually verified on the inner automaton — or to the paper's generic
// progress assumptions (reliable communication / scheduling), which need no
// inner proof. A justice requirement without a documented source would be an
// unjustified assumption.
func TestGadgetJusticeTraceability(t *testing.T) {
	// The documented mapping: justice-name prefix -> discharging source.
	source := map[string]string{
		"bv_term":  "BV-Term",  // verified in phase 1
		"bv_obl0":  "BV-Obl0",  // verified in phase 1
		"bv_obl1":  "BV-Obl1",  // verified in phase 1
		"bv_unif0": "BV-Unif0", // verified in phase 1
		"bv_unif1": "BV-Unif1", // verified in phase 1
		"aux0":     "reliable", // reliable communication on aux quorums
		"aux1":     "reliable", // (the paper's generic progress assumption)
		"aux01":    "reliable",
		"start_":   "scheduling", // every process eventually takes a step
		"advance_": "scheduling",
	}

	qs, err := models.Named("simplified").Queries(models.SimplifiedConsensus())
	if err != nil {
		t.Fatal(err)
	}
	var justice []ta.Justice
	for _, q := range qs {
		if q.Name == "SRoundTerm" {
			justice = q.Justice
		}
	}
	if len(justice) != 23 {
		t.Fatalf("SRoundTerm has %d justice requirements, want 23", len(justice))
	}
	inner, err := VerifyBVBroadcast(Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, j := range justice {
		matched := ""
		for prefix, src := range source {
			if strings.HasPrefix(j.Name, prefix) {
				matched = src
				break
			}
		}
		switch {
		case matched == "":
			t.Errorf("justice requirement %q has no documented source", j.Name)
		case matched == "reliable" || matched == "scheduling":
			// generic assumptions, nothing to discharge
		default:
			res, ok := inner.Result(matched)
			if !ok {
				t.Errorf("justice %q claims inner property %q, which phase 1 did not check", j.Name, matched)
				continue
			}
			if res.Outcome.String() != "holds" {
				t.Errorf("justice %q rests on %q, which did not verify: %v", j.Name, matched, res.Outcome)
			}
		}
	}

	// And the converse sanity: phase 1 covers all four BV properties.
	for _, want := range []string{"BV-Just0", "BV-Just1", "BV-Obl0", "BV-Obl1", "BV-Unif0", "BV-Unif1", "BV-Term"} {
		if _, ok := inner.Result(want); !ok {
			t.Errorf("phase 1 missing %s", want)
		}
	}
}
