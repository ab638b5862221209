package ta

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

// toyTA builds a small two-phase automaton:
//
//	A --r1[true]/x++--> B --r2[x>=t+1-f]/y++--> C
//	A --r3[y>=1]-----> D
//	C --rs(dotted)---> A
func toyTA(t *testing.T) *TA {
	t.Helper()
	b := NewBuilder("toy")
	x := b.Shared("x")
	y := b.Shared("y")
	locA := b.Loc("A", Initial())
	locB := b.Loc("B")
	locC := b.Loc("C")
	locD := b.Loc("D")
	b.Rule("r1", locA, locB, Inc(x))
	b.Rule("r2", locB, locC,
		Guarded(b.GeThreshold(x, b.Lin(1, LinTerm{Coeff: 1, Sym: b.T()}, LinTerm{Coeff: -1, Sym: b.F()}))),
		Inc(y))
	b.Rule("r3", locA, locD, Guarded(b.GeThreshold(y, b.Lin(1))))
	b.Rule("rs", locC, locA, RoundSwitch())
	b.SelfLoop(locC)
	b.SelfLoop(locD)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuilderBasics(t *testing.T) {
	a := toyTA(t)
	if got := len(a.Locations); got != 4 {
		t.Errorf("locations = %d, want 4", got)
	}
	if got := len(a.Rules); got != 6 {
		t.Errorf("rules = %d, want 6 (incl. self-loops and round switch)", got)
	}
	size := a.Size()
	if size.Rules != 6 {
		t.Errorf("Size.Rules = %d, want 6 (all rules counted)", size.Rules)
	}
	if size.UniqueGuards != 2 {
		t.Errorf("unique guards = %d, want 2", size.UniqueGuards)
	}
	init := a.InitialLocs()
	if len(init) != 1 || a.Locations[init[0]].Name != "A" {
		t.Errorf("initial locations = %v", init)
	}
	fin := a.FinalLocs()
	if len(fin) != 2 {
		t.Errorf("final locations = %v, want C and D", fin)
	}
}

func TestLocLookup(t *testing.T) {
	a := toyTA(t)
	id, err := a.LocByName("B")
	if err != nil {
		t.Fatal(err)
	}
	if a.Locations[id].Name != "B" {
		t.Errorf("LocByName returned wrong location")
	}
	if _, err := a.LocByName("nope"); err == nil {
		t.Error("expected error for unknown location")
	}
	if _, err := a.SharedByName("x"); err != nil {
		t.Errorf("SharedByName(x): %v", err)
	}
	if _, err := a.SharedByName("n"); err == nil {
		t.Error("parameter n should not resolve as shared variable")
	}
	if _, err := a.SharedByName("zzz"); err == nil {
		t.Error("unknown name should not resolve as shared variable")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	b := NewBuilder("cyclic")
	locA := b.Loc("A", Initial())
	locB := b.Loc("B")
	b.Rule("r1", locA, locB)
	b.Rule("r2", locB, locA)
	if _, err := b.Build(); err == nil {
		t.Error("expected cycle detection error")
	}
}

func TestValidateRejectsFallingGuard(t *testing.T) {
	b := NewBuilder("falling")
	x := b.Shared("x")
	locA := b.Loc("A", Initial())
	locB := b.Loc("B")
	// guard -x >= -2 (i.e. x <= 2) is falling.
	l := expr.Term(x, -1)
	if err := l.AddConst(2); err != nil {
		t.Fatal(err)
	}
	b.Rule("r1", locA, locB, Guarded(expr.GEZero(l)))
	if _, err := b.Build(); err == nil {
		t.Error("expected rising-guard violation")
	}
}

func TestValidateRejectsNoInitial(t *testing.T) {
	b := NewBuilder("noinit")
	b.Loc("A")
	if _, err := b.Build(); err == nil {
		t.Error("expected no-initial-location error")
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	b := NewBuilder("dup")
	b.Loc("A", Initial())
	b.Loc("A")
	if _, err := b.Build(); err == nil {
		t.Error("expected duplicate-name error")
	}
}

func TestTopoOrderAndDepth(t *testing.T) {
	a := toyTA(t)
	order, err := a.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[LocID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		if pos[r.From] >= pos[r.To] {
			t.Errorf("rule %s violates topological order", r.Name)
		}
	}
	depth, err := a.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if depth[a.MustLoc("A")] != 0 || depth[a.MustLoc("B")] != 1 || depth[a.MustLoc("C")] != 2 {
		t.Errorf("depth = %v", depth)
	}
}

func TestOneRound(t *testing.T) {
	a := toyTA(t)
	or := a.OneRound()
	for _, r := range or.Rules {
		if r.RoundSwitch {
			t.Errorf("one-round TA retains round-switch rule %s", r.Name)
		}
	}
	if len(or.Rules) != len(a.Rules)-1 {
		t.Errorf("one-round rules = %d, want %d", len(or.Rules), len(a.Rules)-1)
	}
	// A remains initial and no new initial appears (A was the only target).
	init := or.InitialLocs()
	if len(init) != 1 || or.Locations[init[0]].Name != "A" {
		t.Errorf("one-round initial locations = %v", init)
	}
}

func TestClosureChecks(t *testing.T) {
	a := toyTA(t)
	// {C} is pred-closed? r2 enters C from B (outside) -> no.
	setC := NewLocSet(a.MustLoc("C"))
	if err := a.PredClosed(setC); err == nil {
		t.Error("{C} should not be predecessor-closed")
	}
	// {B, C} is pred-closed? r1 enters B from A -> no.
	setBC := NewLocSet(a.MustLoc("B"), a.MustLoc("C"))
	if err := a.PredClosed(setBC); err == nil {
		t.Error("{B,C} should not be predecessor-closed")
	}
	// {A, B, C, D} trivially both closed.
	all := NewLocSet(0, 1, 2, 3)
	if err := a.PredClosed(all); err != nil {
		t.Errorf("full set: %v", err)
	}
	if err := a.SuccClosed(all); err != nil {
		t.Errorf("full set: %v", err)
	}
	// {C} is successor-closed (only self-loop and round-switch leave it).
	if err := a.SuccClosed(setC); err != nil {
		t.Errorf("{C} should be successor-closed: %v", err)
	}
	// {A} is not successor-closed (r1 escapes).
	if err := a.SuccClosed(NewLocSet(a.MustLoc("A"))); err == nil {
		t.Error("{A} should not be successor-closed")
	}
	// D has incoming edge r3; B has incoming r1; none are source-free except A.
	if !a.NoIncoming(a.MustLoc("A")) {
		t.Error("A should have no incoming edges")
	}
	if a.NoIncoming(a.MustLoc("D")) {
		t.Error("D has incoming edge r3")
	}
}

func TestLocSetByName(t *testing.T) {
	a := toyTA(t)
	s, err := a.LocSetByName("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || !s[a.MustLoc("A")] || !s[a.MustLoc("C")] {
		t.Errorf("set = %v", s)
	}
	if got := s.String(a); got != "{A,C}" {
		t.Errorf("String = %q", got)
	}
	if _, err := a.LocSetByName("A", "nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestWriteDOT(t *testing.T) {
	a := toyTA(t)
	var sb strings.Builder
	if err := a.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "style=dotted", "x++", "r2"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestGuardString(t *testing.T) {
	a := toyTA(t)
	var r2 Rule
	for _, r := range a.Rules {
		if r.Name == "r2" {
			r2 = r
		}
	}
	got := a.GuardString(r2)
	if !strings.Contains(got, "x") || !strings.Contains(got, ">=") {
		t.Errorf("GuardString = %q", got)
	}
	var r1 Rule
	for _, r := range a.Rules {
		if r.Name == "r1" {
			r1 = r
		}
	}
	if a.GuardString(r1) != "true" {
		t.Errorf("unguarded rule renders %q, want true", a.GuardString(r1))
	}
}

func TestUniqueGuardsDeterministic(t *testing.T) {
	a := toyTA(t)
	g1 := a.UniqueGuards()
	g2 := a.UniqueGuards()
	if len(g1) != len(g2) {
		t.Fatalf("lengths differ")
	}
	for i := range g1 {
		if g1[i].String(a.Table) != g2[i].String(a.Table) {
			t.Errorf("order not deterministic at %d", i)
		}
	}
}

func TestValidateRejectsEffectfulSelfLoopAndGuardedSwitch(t *testing.T) {
	b := NewBuilder("badloops")
	x := b.Shared("x")
	locA := b.Loc("A", Initial())
	b.Rule("bad", locA, locA, Inc(x))
	if _, err := b.Build(); err == nil {
		t.Error("self-loop with update should be rejected")
	}

	b2 := NewBuilder("badswitch")
	y := b2.Shared("y")
	locP := b2.Loc("P", Initial())
	locQ := b2.Loc("Q")
	b2.Rule("r", locP, locQ, Inc(y))
	b2.Rule("rs", locQ, locP, RoundSwitch(), Guarded(b2.GeThreshold(y, b2.Lin(1))))
	if _, err := b2.Build(); err == nil {
		t.Error("guarded round-switch rule should be rejected")
	}
}

func TestValidateRejectsZeroCorrectCount(t *testing.T) {
	b := NewBuilder("zerocount")
	b.Loc("A", Initial())
	a := b.ta
	a.CorrectCount = expr.Lin{}
	if err := a.Validate(); err == nil {
		t.Error("constant-zero correct count should be rejected")
	}
}

// TestValidateNamesFirstBadTerm: a guard that falls in a shared variable and
// also mentions a symbol that is neither shared nor a parameter is reported
// by its first offending term in symbol order, on every call. (Over a
// coefficient map the report named whichever term the map yielded first.)
func TestValidateNamesFirstBadTerm(t *testing.T) {
	const want = "ta mixed: rule r1 guard is not rising in x"
	for i := 0; i < 200; i++ {
		b := NewBuilder("mixed")
		x := b.Shared("x")
		u := b.ta.Table.Intern("u") // neither shared nor a parameter
		locA, locB := b.Loc("A", Initial()), b.Loc("B")
		l, err := expr.LinOf(1, expr.LinTerm{Sym: u, Coeff: 1}, expr.LinTerm{Sym: x, Coeff: -1})
		if err != nil {
			t.Fatal(err)
		}
		b.Rule("r1", locA, locB, Guarded(expr.GEZero(l)))
		if _, err := b.Build(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Build error %v, want %q", i, err, want)
		}
	}
}
