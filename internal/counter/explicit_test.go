package counter

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
)

// specTA builds A --r1[true]/x++--> B --r2[x>=t+1-f]--> C with initial A.
func specTA(t *testing.T) *ta.TA {
	t.Helper()
	b := ta.NewBuilder("specexec")
	x := b.Shared("x")
	locA := b.Loc("A", ta.Initial())
	locB := b.Loc("B")
	locC := b.Loc("C")
	b.Rule("r1", locA, locB, ta.Inc(x))
	b.Rule("r2", locB, locC,
		ta.Guarded(b.GeThreshold(x, b.Lin(1, ta.LinTerm{Coeff: 1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}))))
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCheckQueryExplicitWitnessRunReplays(t *testing.T) {
	a := specTA(t)
	s, err := NewSystem(a, ParamsFor(a, 4, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := spec.Query{
		Name:          "reach-C",
		Kind:          spec.Safety,
		VisitNonempty: []ta.LocSet{ta.NewLocSet(a.MustLoc("C"))},
	}
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Violated {
		t.Fatalf("outcome = %v, want violated (C is reachable)", res.Outcome)
	}
	if res.Run == nil {
		t.Fatal("no witness run attached")
	}
	trace, err := s.Replay(*res.Run)
	if err != nil {
		t.Fatalf("witness run does not replay: %v\n%s", err, s.Format(*res.Run))
	}
	reached := false
	for _, c := range trace {
		if c.K[a.MustLoc("C")] > 0 {
			reached = true
		}
	}
	if !reached {
		t.Errorf("witness run never reaches C:\n%s", s.Format(*res.Run))
	}
}

func TestCheckQueryExplicitHoldsHasNoRun(t *testing.T) {
	a := specTA(t)
	s, err := NewSystem(a, ParamsFor(a, 4, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// With A empty initially, nothing ever moves: C stays unreachable.
	q := spec.Query{
		Name:          "reach-C-empty",
		Kind:          spec.Safety,
		InitEmpty:     []ta.LocID{a.MustLoc("A")},
		VisitNonempty: []ta.LocSet{ta.NewLocSet(a.MustLoc("C"))},
	}
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A is the only initial location, so emptiness contradicts n-f > 0:
	// no admissible initial configuration exists and the property holds.
	if res.Outcome != spec.Holds {
		t.Fatalf("outcome = %v, want holds", res.Outcome)
	}
	if res.Run != nil {
		t.Error("holds verdict must not attach a run")
	}
}

// pinnedExplicit is CheckQueryExplicit's result for every query of five
// bundled models at n=4, t=1, f=1, recorded before the multi-round system
// was folded into this package: outcome, states explored and the witness
// run (initial counters, then the rule of each step). Bosco's three
// one-step queries state a resilience condition (4,1,1) violates.
var pinnedExplicit = []struct {
	model, query string
	outcome      spec.Outcome
	states       int
	run          string
}{
	{"bv", "BV-Just0", spec.Holds, 9, ""},
	{"bv", "BV-Obl0", spec.Holds, 162, ""},
	{"bv", "BV-Unif0", spec.Holds, 162, ""},
	{"bv", "BV-Just1", spec.Holds, 9, ""},
	{"bv", "BV-Obl1", spec.Holds, 162, ""},
	{"bv", "BV-Unif1", spec.Holds, 162, ""},
	{"bv", "BV-Term", spec.Holds, 162, ""},
	{"simplified", "Inv1_0", spec.Holds, 4440, ""},
	{"simplified", "Inv1_1", spec.Holds, 4504, ""},
	{"simplified", "Inv2_0", spec.Holds, 87, ""},
	{"simplified", "Inv2_1", spec.Holds, 87, ""},
	{"simplified", "SRoundTerm", spec.Holds, 4166, ""},
	{"simplified", "Dec_0", spec.Holds, 87, ""},
	{"simplified", "Dec_1", spec.Holds, 87, ""},
	{"simplified", "Good_0", spec.Holds, 449, ""},
	{"simplified", "Good_1", spec.Holds, 2201, ""},
	{"strb", "Unforgeability", spec.Holds, 1, ""},
	{"strb", "Correctness", spec.Holds, 9, ""},
	{"strb", "Relay", spec.Holds, 17, ""},
	{"bosco", "Lemma1_0", spec.Holds, 114, ""},
	{"bosco", "Lemma1_1", spec.Holds, 114, ""},
	{"sba", "Inv1_0", spec.Holds, 4504, ""},
	{"sba", "Inv1_1", spec.Holds, 4440, ""},
	{"sba", "Inv2_0", spec.Holds, 87, ""},
	{"sba", "Inv2_1", spec.Holds, 87, ""},
	{"sba", "Lock_0", spec.Holds, 87, ""},
	{"sba", "Lock_1", spec.Holds, 87, ""},
	{"sba", "SBARoundTerm", spec.Holds, 4166, ""},
	{"sba", "Quiet_0", spec.Holds, 287, ""},
	{"sba", "Quiet_1", spec.Holds, 1769, ""},
}

// runString renders a witness run as its initial counters followed by the
// rule of each unit step.
func runString(t *testing.T, r *Run) string {
	t.Helper()
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprint(&b, r.Init.K)
	for _, st := range r.Steps {
		if st.Factor != 1 || st.Round != 0 {
			t.Fatalf("explicit step %+v, want a unit step in round 0", st)
		}
		fmt.Fprintf(&b, " %d", st.Rule)
	}
	return b.String()
}

func TestExplicitResultsPinned(t *testing.T) {
	i := 0
	for _, name := range []string{"bv", "simplified", "strb", "bosco", "sba"} {
		m := models.Named(name)
		a := m.TA()
		qs, err := m.Queries(a)
		if err != nil {
			t.Fatal(err)
		}
		oneRound := a.OneRound()
		for _, q := range qs {
			sysTA := oneRound
			if q.RelaxResilience != nil {
				sysTA = oneRound.WithResilience(q.RelaxResilience)
			}
			sys, err := NewSystem(sysTA, ParamsFor(oneRound, 4, 1, 1), 1)
			if err != nil {
				continue // the query's own resilience condition excludes (4,1,1)
			}
			res, err := CheckQueryExplicit(sys, &q, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Name, err)
			}
			if i == len(pinnedExplicit) {
				t.Fatalf("more checked queries than the %d pinned", len(pinnedExplicit))
			}
			want := pinnedExplicit[i]
			i++
			got := runString(t, res.Run)
			if name != want.model || q.Name != want.query || res.Outcome != want.outcome || res.States != want.states || got != want.run {
				t.Errorf("%s/%s: %v after %d states, run %q; pinned %s/%s: %v after %d states, run %q",
					name, q.Name, res.Outcome, res.States, got, want.model, want.query, want.outcome, want.states, want.run)
			}
		}
	}
	if i != len(pinnedExplicit) {
		t.Errorf("%d checked queries, %d pinned", i, len(pinnedExplicit))
	}
}

// simplifiedRounds is the counter system of the simplified consensus
// automaton over two superrounds at n=4, t=1, f=1.
func simplifiedRounds(t *testing.T) (*System, *ta.TA) {
	t.Helper()
	a := models.SimplifiedConsensus()
	sys, err := NewSystem(a, ParamsFor(a, 4, 1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	return sys, a
}

// visitAnyRound checks the cross-round visit query: a violation is a run
// that, for every set, has some process in it in some round at some time.
func visitAnyRound(t *testing.T, sys *System, initEmpty []ta.LocID, sets ...string) ExplicitResult {
	t.Helper()
	q := spec.Query{Name: "cross-round", Kind: spec.Safety, InitEmpty: initEmpty}
	for _, name := range sets {
		set, err := sys.TA.LocSetByName(strings.Split(name, ",")...)
		if err != nil {
			t.Fatal(err)
		}
		q.VisitNonempty = append(q.VisitNonempty, set)
	}
	res, err := CheckQueryExplicit(sys, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == spec.Violated {
		checkCrossRoundWitness(t, sys, &q, res.Run)
	}
	return res
}

// checkCrossRoundWitness replays a multi-round witness run, checks that it
// visits every set of the query, and that its round-rigid reordering
// replays to the same final configuration (Verify).
func checkCrossRoundWitness(t *testing.T, sys *System, q *spec.Query, run *Run) {
	t.Helper()
	if run == nil {
		t.Fatal("violation without a witness run")
	}
	trace, err := sys.Replay(*run)
	if err != nil {
		t.Fatalf("witness run does not replay: %v\n%s", err, sys.Format(*run))
	}
	for _, set := range q.VisitNonempty {
		seen := false
		for _, c := range trace {
			seen = seen || sys.SumLocs(c, set) > 0
		}
		if !seen {
			t.Errorf("witness run never visits %s:\n%s", set.String(sys.TA), sys.Format(*run))
		}
	}
	rigid, err := sys.Verify(*run)
	if err != nil {
		t.Fatal(err)
	}
	if !IsRoundRigid(rigid) {
		t.Error("Verify returned a reordering that is not round-rigid")
	}
}

// TestAgreementAcrossSuperrounds verifies the FULL (Agree_v) property of
// Section 5.1 — with its two independent superround quantifiers — by
// explicit multi-round search: across two consecutive superrounds of the
// simplified automaton, no execution both decides 0 (visits D0 in any
// superround) and decides 1 (visits D1 in any superround). The paper
// obtains this from the one-superround invariants Inv1/Inv2 via the
// reduction; here it is confirmed directly for small parameters.
func TestAgreementAcrossSuperrounds(t *testing.T) {
	sys, _ := simplifiedRounds(t)
	res := visitAnyRound(t, sys, nil, "D0", "D1")
	if res.Outcome != spec.Holds {
		t.Errorf("cross-superround disagreement found — Agreement broken (%v)", res.Outcome)
	}
	if res.States != 118016 {
		t.Errorf("explored %d multi-round states, pinned 118016", res.States)
	}

	// Within ONE superround the stronger Inv1 shape (D1 or E1x) must be
	// unreachable together with D0 — but across superrounds E1x in an early
	// superround may legitimately precede a D0 decision later (E1x is an
	// estimate, not a decision), so only the D-locations enter the
	// cross-round property, exactly as in (Agree_v).
	res = visitAnyRound(t, sys, nil, "D0", "E1x")
	if res.Outcome != spec.Violated {
		t.Error("E1x in an early superround followed by D0 later should be reachable")
	}
	if res.States != 22304 {
		t.Errorf("explored %d multi-round states, pinned 22304", res.States)
	}
}

// TestValidityAcrossSuperrounds verifies the full (Valid_v): if no process
// starts superround 1 with value 0, no process decides 0 in ANY superround.
func TestValidityAcrossSuperrounds(t *testing.T) {
	sys, a := simplifiedRounds(t)
	res := visitAnyRound(t, sys, []ta.LocID{a.MustLoc("V0")}, "D0,E0x")
	if res.Outcome != spec.Holds {
		t.Errorf("decided 0 although nobody proposed 0 — Validity broken (%v)", res.Outcome)
	}
	if res.States != 395 {
		t.Errorf("explored %d multi-round states, pinned 395", res.States)
	}
}

// TestAgreementBreaksWithoutResilience: the same cross-superround search
// with n = 3t finds the disagreement — the multi-round counterpart of the
// Section 6 counterexample.
func TestAgreementBreaksWithoutResilience(t *testing.T) {
	a := models.SimplifiedConsensus()
	q, err := models.Inv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	relaxed := a.WithResilience(q.RelaxResilience)
	sys, err := NewSystem(relaxed, ParamsFor(relaxed, 3, 1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	res := visitAnyRound(t, sys, nil, "D0", "D1")
	if res.Outcome != spec.Violated {
		t.Error("expected cross-superround disagreement at n=3t")
	}
	if res.States != 269 {
		t.Errorf("explored %d multi-round states, pinned 269", res.States)
	}
}

// TestDecisionsSurviveRoundSwitch: a sanity check that a decision in
// superround 1 can coexist with processes progressing in superround 2
// (decided processes keep participating, as Algorithm 1 prescribes).
func TestDecisionsSurviveRoundSwitch(t *testing.T) {
	sys, _ := simplifiedRounds(t)
	// Reaching D0 in some round AND having someone in M in some round is
	// trivially possible (M is traversed on the way); the point is that the
	// machinery finds satisfiable multi-set queries too.
	res := visitAnyRound(t, sys, nil, "D0", "M")
	if res.Outcome != spec.Violated {
		t.Error("expected a run reaching both D0 and M")
	}
	if res.States != 1336 {
		t.Errorf("explored %d multi-round states, pinned 1336", res.States)
	}
}

// TestMultiRoundRefusesFinalConditions: final conditions and justice are
// stated over one round, so a multi-round search reports an error for them
// rather than a verdict.
func TestMultiRoundRefusesFinalConditions(t *testing.T) {
	sys, a := simplifiedRounds(t)
	q := spec.Query{Name: "live", Kind: spec.Liveness, Justice: a.DefaultJustice()}
	if _, err := CheckQueryExplicit(sys, &q, 0); err == nil || !strings.Contains(err.Error(), "2-round") {
		t.Errorf("liveness query on a two-round system: err = %v, want a refusal", err)
	}
}
