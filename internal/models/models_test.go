package models

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// TestBVBroadcastStructure checks the Fig. 2 / Table 2 shape: 10 locations,
// 19 rules (12 progress + 7 self-loops), 4 unique guards.
func TestBVBroadcastStructure(t *testing.T) {
	a := BVBroadcast()
	size := a.Size()
	if size.Locations != 10 {
		t.Errorf("locations = %d, want 10", size.Locations)
	}
	if size.Rules != 19 {
		t.Errorf("rules = %d, want 19", size.Rules)
	}
	if size.UniqueGuards != 4 {
		t.Errorf("unique guards = %d, want 4", size.UniqueGuards)
	}
	if got := a.NumSelfLoops(); got != 7 {
		t.Errorf("self-loops = %d, want 7", got)
	}
	init := a.InitialLocs()
	if len(init) != 2 {
		t.Errorf("initial locations = %d, want V0 and V1", len(init))
	}
}

// TestTable1LocationSemantics reproduces Table 1 from the rules of the
// bv-broadcast automaton: walking the rule DAG from the initial locations,
// a location has broadcast every v whose b_v a path to it increments, and
// delivered every v whose delivery guard b_v >= 2t+1-f that path crosses.
// Every path to a location must agree, and the result must be the paper's
// table.
func TestTable1LocationSemantics(t *testing.T) {
	want := map[string]struct{ broadcast, delivered []int }{
		"V0":  {nil, nil},
		"V1":  {nil, nil},
		"B0":  {[]int{0}, nil},
		"B1":  {[]int{1}, nil},
		"B01": {[]int{0, 1}, nil},
		"C0":  {[]int{0}, []int{0}},
		"CB0": {[]int{0, 1}, []int{0}},
		"C1":  {[]int{1}, []int{1}},
		"CB1": {[]int{0, 1}, []int{1}},
		"C01": {[]int{0, 1}, []int{0, 1}},
	}
	a := BVBroadcast()
	tParam, fParam := a.Params[1], a.Params[2]
	value := map[expr.Sym]int{} // b_v -> v
	deliver := map[string]int{} // rendered b_v - 2t + f - 1 >= 0 -> v
	for v := 0; v <= 1; v++ {
		bv, err := a.SharedByName(fmt.Sprintf("b%d", v))
		if err != nil {
			t.Fatal(err)
		}
		value[bv] = v
		g := expr.Var(bv)
		if g.AddTerm(tParam, -2) != nil || g.AddTerm(fParam, 1) != nil || g.AddConst(-1) != nil {
			t.Fatal("building the delivery guard overflowed")
		}
		deliver[expr.GEZero(g).String(a.Table)] = v
	}

	// A location's sets as bit masks over v.
	type sets struct{ broadcast, delivered uint }
	derived := map[ta.LocID]sets{}
	var walk func(l ta.LocID, s sets)
	walk = func(l ta.LocID, s sets) {
		if prev, seen := derived[l]; seen {
			if prev != s {
				t.Errorf("%s: paths disagree: %+v vs %+v", a.Locations[l].Name, prev, s)
			}
			return
		}
		derived[l] = s
		for _, r := range a.Rules {
			if r.From != l || r.SelfLoop() {
				continue
			}
			next := s
			for sym := range r.Update {
				v, ok := value[sym]
				if !ok {
					t.Fatalf("rule %s increments %s, not a b_v", r.Name, a.Table.Name(sym))
				}
				next.broadcast |= 1 << v
			}
			for _, g := range r.Guard {
				if v, ok := deliver[g.String(a.Table)]; ok {
					next.delivered |= 1 << v
				}
			}
			walk(r.To, next)
		}
	}
	for _, l := range a.InitialLocs() {
		walk(l, sets{})
	}

	values := func(mask uint) []int {
		var out []int
		for v := 0; v <= 1; v++ {
			if mask&(1<<v) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	if len(derived) != len(a.Locations) || len(want) != len(a.Locations) {
		t.Fatalf("derived %d rows, table has %d, automaton has %d locations", len(derived), len(want), len(a.Locations))
	}
	for id, s := range derived {
		name := a.Locations[id].Name
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected location %s", name)
			continue
		}
		if got := values(s.broadcast); !reflect.DeepEqual(got, w.broadcast) {
			t.Errorf("%s: broadcast %v, Table 1 says %v", name, got, w.broadcast)
		}
		if got := values(s.delivered); !reflect.DeepEqual(got, w.delivered) {
			t.Errorf("%s: delivered %v, Table 1 says %v", name, got, w.delivered)
		}
	}
}

// TestNaiveConsensusStructure checks the Fig. 3 shape. The paper's Table 2
// reports 24 locations / 45 rules / 14 guards; transcribing Fig. 3 and
// Table 3 literally yields 26 locations and 44 rules (the figure draws 26
// boxes), and exactly the 14 unique guards.
func TestNaiveConsensusStructure(t *testing.T) {
	a := NaiveConsensus()
	size := a.Size()
	if size.Locations != 26 {
		t.Errorf("locations = %d, want 26", size.Locations)
	}
	if size.Rules != 44 {
		t.Errorf("rules = %d, want 44", size.Rules)
	}
	if size.UniqueGuards != 14 {
		t.Errorf("unique guards = %d, want 14", size.UniqueGuards)
	}
	// Superround wiring: the odd half decides 1, the even half decides 0.
	if _, err := a.LocByName("D1"); err != nil {
		t.Error(err)
	}
	if _, err := a.LocByName("D0"); err != nil {
		t.Error(err)
	}
	// Round-switch rules lead back to the first-half initial locations.
	switches := 0
	for _, r := range a.Rules {
		if r.RoundSwitch {
			switches++
			name := a.Locations[r.To].Name
			if name != "V0" && name != "V1" {
				t.Errorf("round switch %s targets %s", r.Name, name)
			}
		}
	}
	if switches != 3 {
		t.Errorf("round-switch rules = %d, want 3 (from D0, E0x, E1x)", switches)
	}
}

// TestSimplifiedConsensusStructure checks the Fig. 4 shape. The paper's
// Table 2 reports 16 locations / 37 rules / 10 guards; Fig. 4 draws 18
// locations, and the rule count matches at 37 with the self-loops included.
func TestSimplifiedConsensusStructure(t *testing.T) {
	a := SimplifiedConsensus()
	size := a.Size()
	if size.Locations != 18 {
		t.Errorf("locations = %d, want 18", size.Locations)
	}
	if size.Rules != 37 {
		t.Errorf("rules = %d, want 37", size.Rules)
	}
	if size.UniqueGuards != 10 {
		t.Errorf("unique guards = %d, want 10", size.UniqueGuards)
	}
}

func TestQueriesValidate(t *testing.T) {
	bv := BVBroadcast()
	if _, err := Named("bv").Queries(bv); err != nil {
		t.Errorf("bv queries: %v", err)
	}
	simp := SimplifiedConsensus()
	qs, err := Named("simplified").Queries(simp)
	if err != nil {
		t.Fatalf("simplified queries: %v", err)
	}
	if len(qs) != 9 {
		t.Errorf("simplified queries = %d, want 9", len(qs))
	}
	naive := NaiveConsensus()
	nq, err := Named("naive").Queries(naive)
	if err != nil {
		t.Fatalf("naive queries: %v", err)
	}
	if len(nq) != 3 {
		t.Errorf("naive queries = %d, want 3", len(nq))
	}
	if _, err := Inv1CounterexampleQuery(simp); err != nil {
		t.Errorf("Inv1CounterexampleQuery: %v", err)
	}
}

// justiceOf returns the justice requirements of one bundled property.
func justiceOf(t *testing.T, model, prop string) []ta.Justice {
	t.Helper()
	m := Named(model)
	qs, err := m.Queries(m.TA())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Name == prop {
			return q.Justice
		}
	}
	t.Fatalf("%s has no property %s", model, prop)
	return nil
}

// TestSimplifiedJusticeShape: SRoundTerm's justice is the Appendix F
// premise, not the default per-rule justice.
func TestSimplifiedJusticeShape(t *testing.T) {
	js := justiceOf(t, "simplified", "SRoundTerm")
	// 10 per half (start x2, bv_term, obl x2, unif x2, aux x3) + 3 advance.
	if len(js) != 23 {
		t.Errorf("justice requirements = %d, want 23", len(js))
	}
	names := make(map[string]bool, len(js))
	for _, j := range js {
		names[j.Name] = true
	}
	for _, want := range []string{"bv_term", "bv_termx", "bv_obl0", "bv_unif1x", "aux01", "advance_D1"} {
		if !names[want] {
			t.Errorf("missing justice requirement %s", want)
		}
	}
	// The raw bv rules s6/s7 must NOT carry default justice (their triggers
	// bvb_v >= 1 are unsound for the algorithm).
	for _, j := range js {
		if strings.HasPrefix(j.Name, "rc_s6") || strings.HasPrefix(j.Name, "rc_s7") {
			t.Errorf("unsound default justice %s present", j.Name)
		}
	}
}

// explicitCheck runs a query against the one-round system for fixed
// parameters and returns the outcome.
func explicitCheck(t *testing.T, a *ta.TA, q spec.Query, n, tt, f int64) spec.Outcome {
	t.Helper()
	oneRound := a.OneRound()
	sys, err := counter.NewSystem(oneRound, counter.ParamsFor(oneRound, n, tt, f), 1)
	if err != nil {
		t.Fatalf("system n=%d t=%d f=%d: %v", n, tt, f, err)
	}
	res, err := counter.CheckQueryExplicit(sys, &q, 0)
	if err != nil {
		t.Fatalf("query %s: %v", q.Name, err)
	}
	if res.Outcome == spec.Budget {
		t.Fatalf("query %s: state budget exhausted", q.Name)
	}
	return res.Outcome
}

// TestBVPropertiesExplicitSmall verifies all bv-broadcast properties by
// exhaustive state enumeration for small parameter instances: the ground
// truth the parameterized checker must agree with.
func TestBVPropertiesExplicitSmall(t *testing.T) {
	a := BVBroadcast()
	qs, err := Named("bv").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range [][3]int64{{4, 1, 1}, {4, 1, 0}, {5, 1, 1}} {
		for _, q := range qs {
			if got := explicitCheck(t, a, q, params[0], params[1], params[2]); got != spec.Holds {
				t.Errorf("n=%d t=%d f=%d: %s = %v, want holds", params[0], params[1], params[2], q.Name, got)
			}
		}
	}
}

// TestSimplifiedPropertiesExplicitSmall verifies the Section 5 properties on
// the simplified automaton for small parameters.
func TestSimplifiedPropertiesExplicitSmall(t *testing.T) {
	a := SimplifiedConsensus()
	qs, err := Named("simplified").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range [][3]int64{{4, 1, 1}, {4, 1, 0}} {
		for _, q := range qs {
			if got := explicitCheck(t, a, q, params[0], params[1], params[2]); got != spec.Holds {
				t.Errorf("n=%d t=%d f=%d: %s = %v, want holds", params[0], params[1], params[2], q.Name, got)
			}
		}
	}
}

// TestInv1ViolatedWithoutResilience reproduces the Section 6 counterexample:
// once Byzantine processes may reach a third of the system (n = 3t), two
// correct processes can decide different values.
func TestInv1ViolatedWithoutResilience(t *testing.T) {
	a := SimplifiedConsensus()
	q, err := Inv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	relaxed := a.WithResilience(q.RelaxResilience)
	if got := explicitCheck(t, relaxed, q, 3, 1, 1); got != spec.Violated {
		t.Errorf("Inv1_0 with n=3,t=1,f=1: %v, want violated", got)
	}
	// Under proper resilience the same query holds.
	if got := explicitCheck(t, a, q, 4, 1, 1); got != spec.Violated {
		// q still carries the relaxed resilience but the system uses the
		// original; with n=4,t=1,f=1 disagreement must be impossible.
		if got != spec.Holds {
			t.Errorf("Inv1_0 with n=4,t=1,f=1: %v, want holds", got)
		}
	} else {
		t.Error("Inv1_0 must hold for n=4,t=1,f=1")
	}
}

// TestNaivePropertiesExplicitSmall verifies Inv1_0 and Inv2_0 on the naive
// automaton for the smallest instance — demonstrating that the naive model
// is checkable explicitly for fixed parameters even though its parameterized
// verification explodes.
func TestNaivePropertiesExplicitSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("naive explicit exploration is slow")
	}
	a := NaiveConsensus()
	qs, err := Named("naive").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Kind != spec.Safety {
			continue // liveness state space is the same; skip duplicate work
		}
		if got := explicitCheck(t, a, q, 4, 1, 1); got != spec.Holds {
			t.Errorf("n=4 t=1 f=1: %s = %v, want holds", q.Name, got)
		}
	}
}

func TestModelsRenderDOT(t *testing.T) {
	for _, a := range []*ta.TA{BVBroadcast(), NaiveConsensus(), SimplifiedConsensus()} {
		var sb strings.Builder
		if err := a.WriteDOT(&sb); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if len(sb.String()) < 100 {
			t.Errorf("%s: implausibly short DOT output", a.Name)
		}
	}
}
