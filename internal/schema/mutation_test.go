package schema

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
)

// These tests mutate the paper's models and require the checker to notice:
// negative coverage proving that "holds" verdicts are not vacuous.

// withoutRule returns a copy of the automaton with the named rule removed.
func withoutRule(t *testing.T, a *ta.TA, name string) *ta.TA {
	t.Helper()
	out := *a
	out.Rules = nil
	found := false
	for _, r := range a.Rules {
		if r.Name == name {
			found = true
			continue
		}
		out.Rules = append(out.Rules, r)
	}
	if !found {
		t.Fatalf("no rule %s in %s", name, a.Name)
	}
	return &out
}

// withGuard returns a copy with the named rule's guard replaced.
func withGuard(t *testing.T, a *ta.TA, name string, guard expr.Constraint) *ta.TA {
	t.Helper()
	out := *a
	out.Rules = append([]ta.Rule(nil), a.Rules...)
	for i, r := range out.Rules {
		if r.Name == name {
			out.Rules[i].Guard = []expr.Constraint{guard}
			return &out
		}
	}
	t.Fatalf("no rule %s in %s", name, a.Name)
	return nil
}

// TestMutantNoEchoBreaksObligation removes the echo rule r5 (B1 -> B01 on
// t+1 zeros): without the echo amplification, t+1 correct initial zeros no
// longer guarantee delivery of 0 — BV-Obligation must fail with a certified
// counterexample, and the explicit checker must confirm it.
func TestMutantNoEchoBreaksObligation(t *testing.T) {
	a := withoutRule(t, models.BVBroadcast(), "r5")
	qs, err := models.Named("bv").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	var obl spec.Query
	for _, q := range qs {
		if q.Name == "BV-Obl0" {
			obl = q
		}
	}
	// Justice must match the mutated rule set.
	obl.Justice = a.OneRound().DefaultJustice()

	e := newEngine(t, a, Staged)
	res := check(t, e, obl)
	if res.Outcome != spec.Violated {
		t.Fatalf("BV-Obl0 on echo-less mutant: %v, want violated", res.Outcome)
	}
	// Confirm explicitly at the counterexample's parameters.
	n := res.CE.Params[a.Params[0]]
	tt := res.CE.Params[a.Params[1]]
	f := res.CE.Params[a.Params[2]]
	if n <= 12 {
		sys, err := counter.NewSystem(a.OneRound(), counter.ParamsFor(a, n, tt, f), 1)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := counter.CheckQueryExplicit(sys, &obl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if eres.Outcome != spec.Violated {
			t.Errorf("explicit checker disagrees: %v", eres.Outcome)
		}
	}
}

// TestMutantWeakAuxThresholdBreaksAgreement weakens the aux quorum of the
// simplified automaton's decision rule s8 (M1 -> D1) from n-t-f to 1:
// deciding on a single aux message lets two camps decide differently, so
// Inv1_0 must be violated even under n > 3t.
func TestMutantWeakAuxThresholdBreaksAgreement(t *testing.T) {
	orig := models.SimplifiedConsensus()
	a1, err := orig.SharedByName("a1")
	if err != nil {
		t.Fatal(err)
	}
	weak := expr.Var(a1)
	if err := weak.AddConst(-1); err != nil {
		t.Fatal(err)
	}
	mutant := withGuard(t, orig, "s8", expr.GEZero(weak)) // a1 >= 1

	qs, err := models.Named("simplified").Queries(mutant)
	if err != nil {
		t.Fatal(err)
	}
	var inv spec.Query
	for _, q := range qs {
		if q.Name == "Inv1_0" {
			inv = q
		}
	}
	e := newEngine(t, mutant, Staged)
	res := check(t, e, inv)
	if res.Outcome != spec.Violated {
		t.Fatalf("Inv1_0 on weak-quorum mutant: %v, want violated", res.Outcome)
	}
	n := res.CE.Params[mutant.Params[0]]
	tt := res.CE.Params[mutant.Params[1]]
	if n <= 3*tt {
		t.Errorf("mutant counterexample should exist under proper resilience, got n=%d t=%d", n, tt)
	}
}

// TestMutantMissingDecisionBreaksTermination removes s5x (M0x -> D0) — in
// the even half, qualifiers {0} can then only progress via M01x — together
// with the fairness assumption that covered it (aux0x: "M0x drains once the
// aux quorum is reached", which no rule can honor anymore). A run in which
// every process holds estimate 0 in the even half then stalls in M0x
// forever: SRoundTerm must fail.
//
// Notably, removing ONLY the rule leaves the query verified: the stale
// justice assumption declares the stuck configuration unfair, a vacuity the
// companion check below pins down.
func TestMutantMissingDecisionBreaksTermination(t *testing.T) {
	mutant := withoutRule(t, models.SimplifiedConsensus(), "s5x")
	qs, err := models.Named("simplified").Queries(mutant)
	if err != nil {
		t.Fatal(err)
	}
	var srt spec.Query
	for _, q := range qs {
		if q.Name == "SRoundTerm" {
			srt = q
		}
	}

	// With the stale aux0x justice still promised, the checker (soundly)
	// reports holds: the assumption excludes the stuck run.
	e := newEngine(t, mutant, Staged)
	res := check(t, e, srt)
	if res.Outcome != spec.Holds {
		t.Fatalf("SRoundTerm with stale justice: %v, want holds (vacuously)", res.Outcome)
	}

	// Dropping the unfulfillable assumption exposes the bug.
	var honest []ta.Justice
	for _, j := range srt.Justice {
		if j.Name == "aux0x" {
			continue
		}
		honest = append(honest, j)
	}
	srt.Justice = honest
	res = check(t, e, srt)
	if res.Outcome != spec.Violated {
		t.Fatalf("SRoundTerm on decision-less mutant: %v, want violated", res.Outcome)
	}
}

// TestMutantsDoNotBreakUnrelatedProperties: sanity — the mutations above
// must not flip properties they do not touch (no over-sensitivity).
func TestMutantsDoNotBreakUnrelatedProperties(t *testing.T) {
	// Removing the echo rule must keep BV-Justification intact.
	a := withoutRule(t, models.BVBroadcast(), "r5")
	qs, err := models.Named("bv").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, a, Staged)
	for _, q := range qs {
		if q.Name != "BV-Just0" && q.Name != "BV-Just1" {
			continue
		}
		q.Justice = nil // safety queries carry no justice
		res := check(t, e, q)
		if res.Outcome != spec.Holds {
			t.Errorf("%s on echo-less mutant: %v, want holds", q.Name, res.Outcome)
		}
	}
}
