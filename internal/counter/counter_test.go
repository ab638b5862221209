package counter

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// chainTA builds the one-round automaton
//
//	A --r1[true]/x++--> B --r2[x >= t+1-f]--> C
//
// with initial A. With n-f correct processes, r2 unlocks once t+1-f
// processes have fired r1.
func chainTA(t *testing.T) *ta.TA {
	t.Helper()
	b := ta.NewBuilder("chain")
	x := b.Shared("x")
	locA := b.Loc("A", ta.Initial())
	locB := b.Loc("B")
	locC := b.Loc("C")
	b.Rule("r1", locA, locB, ta.Inc(x))
	b.Rule("r2", locB, locC,
		ta.Guarded(b.GeThreshold(x, b.Lin(1, ta.LinTerm{Coeff: 1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}))))
	b.SelfLoop(locC)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sys(t *testing.T, a *ta.TA, n, tt, f int64) *System {
	t.Helper()
	params := map[expr.Sym]int64{a.Params[0]: n, a.Params[1]: tt, a.Params[2]: f}
	s, err := NewSystem(a, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemChecksResilience(t *testing.T) {
	a := chainTA(t)
	params := map[expr.Sym]int64{a.Params[0]: 3, a.Params[1]: 1, a.Params[2]: 1}
	if _, err := NewSystem(a, params, 1); err == nil {
		t.Error("n=3,t=1 violates n>3t; expected error")
	}
	params[a.Params[0]] = 4
	if _, err := NewSystem(a, params, 1); err != nil {
		t.Errorf("n=4,t=1,f=1: %v", err)
	}
	delete(params, a.Params[2])
	if _, err := NewSystem(a, params, 1); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestNewSystemRejectsRoundSwitch(t *testing.T) {
	b := ta.NewBuilder("rs")
	locA := b.Loc("A", ta.Initial())
	locB := b.Loc("B")
	b.Rule("r1", locA, locB)
	b.Rule("rs", locB, locA, ta.RoundSwitch())
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := map[expr.Sym]int64{a.Params[0]: 4, a.Params[1]: 1, a.Params[2]: 0}
	if _, err := NewSystem(a, params, 1); err == nil {
		t.Error("multi-round TA should be rejected")
	}
}

func TestApplySemantics(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1) // 3 correct processes; r2 needs x >= t+1-f = 1

	init := Config{K: []int64{3, 0, 0}, V: []int64{0}}

	// r2 is locked initially (x=0 < 1).
	if _, err := s.Apply(init, Step{Rule: 1, Factor: 1}); err == nil {
		t.Error("r2 should be blocked while x=0")
	}
	// r1 fires with acceleration 2.
	c1, err := s.Apply(init, Step{Rule: 0, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c1.K[0] != 1 || c1.K[1] != 2 || c1.V[0] != 2 {
		t.Errorf("after r1 x2: %s", s.String(c1))
	}
	// Over-accelerating beyond the source counter fails.
	if _, err := s.Apply(c1, Step{Rule: 0, Factor: 2}); err == nil {
		t.Error("r1 x2 with only 1 process at A should fail")
	}
	// r2 now unlocked.
	c2, err := s.Apply(c1, Step{Rule: 1, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.K[2] != 2 {
		t.Errorf("after r2 x2: %s", s.String(c2))
	}
	// factor 0 is a no-op clone.
	c3, err := s.Apply(c2, Step{Rule: 0, Factor: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Key() != c2.Key() {
		t.Error("factor 0 should not change the configuration")
	}
	if _, err := s.Apply(c2, Step{Rule: 0, Factor: -1}); err == nil {
		t.Error("negative factor should error")
	}
}

func TestReplayValidation(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1)

	good := Run{
		Init:  Config{K: []int64{3, 0, 0}, V: []int64{0}},
		Steps: []Step{{Rule: 0, Factor: 3}, {Rule: 1, Factor: 3}},
	}
	trace, err := s.Replay(good)
	if err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	if len(trace) != 3 {
		t.Errorf("trace length = %d, want 3", len(trace))
	}
	final := trace[len(trace)-1]
	if final.K[2] != 3 {
		t.Errorf("final config %s, want all in C", s.String(final))
	}

	// Wrong process count.
	bad := good
	bad.Init = Config{K: []int64{2, 0, 0}, V: []int64{0}}
	if _, err := s.Replay(bad); err == nil {
		t.Error("wrong total should be rejected")
	}
	// Processes in non-initial location.
	bad.Init = Config{K: []int64{2, 1, 0}, V: []int64{0}}
	if _, err := s.Replay(bad); err == nil {
		t.Error("non-initial start should be rejected")
	}
	// Nonzero initial shared variable.
	bad.Init = Config{K: []int64{3, 0, 0}, V: []int64{1}}
	if _, err := s.Replay(bad); err == nil {
		t.Error("nonzero initial shared variable should be rejected")
	}
	// Premature r2.
	bad = Run{
		Init:  Config{K: []int64{3, 0, 0}, V: []int64{0}},
		Steps: []Step{{Rule: 1, Factor: 1}},
	}
	if _, err := s.Replay(bad); err == nil {
		t.Error("firing r2 before its guard unlocks should be rejected")
	}
	// Unknown rule index.
	bad.Steps = []Step{{Rule: 99, Factor: 1}}
	if _, err := s.Replay(bad); err == nil {
		t.Error("unknown rule index should be rejected")
	}
}

func TestEnumerateInitial(t *testing.T) {
	b := ta.NewBuilder("two-init")
	locA := b.Loc("A", ta.Initial())
	locB := b.Loc("B", ta.Initial())
	locC := b.Loc("C")
	b.Rule("r1", locA, locC)
	b.Rule("r2", locB, locC)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sys(t, a, 4, 1, 0) // 4 correct processes

	count := 0
	err = s.EnumerateInitial(func(c Config) error {
		count++
		if c.K[locA]+c.K[locB] != 4 {
			t.Errorf("bad distribution %v", c.K)
		}
		if c.K[locC] != 0 {
			t.Errorf("process in non-initial location: %v", c.K)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 { // (0,4),(1,3),(2,2),(3,1),(4,0)
		t.Errorf("enumerated %d initial configs, want 5", count)
	}
}

// xAbove is the safety query "x > v": a violation is a reachable
// configuration with shared variable x at v+1 or more.
func xAbove(a *ta.TA, v int64) spec.Query {
	x := expr.Var(a.Shared[0])
	x.Const = -v - 1
	return spec.Query{
		Name:        "x-above",
		Kind:        spec.Safety,
		FinalShared: []expr.Constraint{expr.GEZero(x)},
	}
}

// stable is the liveness query whose violation is a reachable
// justice-stable configuration with a process in every goal set.
func stable(justice []ta.Justice, goal ...ta.LocSet) spec.Query {
	return spec.Query{Name: "stable", Kind: spec.Liveness, FinalNonempty: goal, Justice: justice}
}

func TestBFSReachability(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1)

	// Under default justice the only stable configurations have everyone
	// in C: r1's justice drains A, and then x = 3 makes r2's drain B.
	q := stable(a.DefaultJustice())
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Violated || res.Witness.K[2] != 3 {
		t.Errorf("search never reached the all-in-C configuration as a stable one: %v %s", res.Outcome, s.String(res.Witness))
	}
	if res.States == 0 || len(res.Run.Steps) == 0 {
		t.Errorf("implausible search: %d states, run %+v", res.States, res.Run)
	}
}

func TestFindViolationProducesReplayableRun(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1)

	q := spec.Query{Name: "reach-C", Kind: spec.Safety, VisitNonempty: []ta.LocSet{ta.NewLocSet(a.MustLoc("C"))}}
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil {
		t.Fatal("expected to find a configuration with a process in C")
	}
	trace, err := s.Replay(*res.Run)
	if err != nil {
		t.Fatalf("violation run does not replay: %v\n%s", err, s.Format(*res.Run))
	}
	if final := trace[len(trace)-1]; final.K[2] < 1 {
		t.Errorf("replayed run ends at %s, want a process in C", s.String(final))
	}

	q = xAbove(a, 3)
	res, err = CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run != nil {
		t.Errorf("x can never exceed 3 with 3 correct processes, got run:\n%s", s.Format(*res.Run))
	}
}

func TestFindStableViolation(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1)
	ab := ta.NewLocSet(a.MustLoc("A"), a.MustLoc("B"))

	// Liveness "eventually everyone reaches C" holds under default justice:
	// every configuration with a process outside C violates some justice
	// requirement (r1's or r2's source must drain).
	q := stable(a.DefaultJustice(), ab)
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run != nil {
		t.Errorf("unexpected liveness counterexample:\n%s", s.Format(*res.Run))
	}

	// Without any justice, stuttering forever in the initial configuration
	// is fair, so the same goal is violated.
	q = stable(nil, ab)
	res, err = CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil {
		t.Error("with no justice at all, staying at A forever should violate the goal")
	}

	// Keeping justice only for r2 means a process may stay at A forever, so
	// a violation must exist with processes still at A.
	var justR2 []ta.Justice
	for _, j := range a.DefaultJustice() {
		if j.Name == "rc_r2" {
			justR2 = append(justR2, j)
		}
	}
	q = stable(justR2, ta.NewLocSet(a.MustLoc("A")))
	res, err = CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil {
		t.Error("without r1's justice, processes may legitimately stay at A")
	}
}

func TestBFSBudget(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 7, 2, 0) // 7 correct processes -> more states
	q := xAbove(a, 7)
	res, err := CheckQueryExplicit(s, &q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Budget {
		t.Errorf("outcome = %v, want %v", res.Outcome, spec.Budget)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	a := chainTA(t)
	s := sys(t, a, 4, 1, 1)
	// A query without conditions is violated by the first state visited.
	q := spec.Query{Name: "any", Kind: spec.Safety}
	res, err := CheckQueryExplicit(s, &q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Violated || res.States != 1 {
		t.Errorf("outcome %v after %d states, want violated after 1", res.Outcome, res.States)
	}
}

func TestSortedRules(t *testing.T) {
	a := chainTA(t)
	order, err := SortedRules(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v, want 2 progress rules", order)
	}
	// r1 (depth 0 source) before r2 (depth 1 source).
	if a.Rules[order[0]].Name != "r1" || a.Rules[order[1]].Name != "r2" {
		t.Errorf("order = [%s %s], want [r1 r2]", a.Rules[order[0]].Name, a.Rules[order[1]].Name)
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	c1 := Config{K: []int64{1, 2}, V: []int64{3}}
	c2 := Config{K: []int64{12}, V: []int64{3}}
	if c1.Key() == c2.Key() {
		t.Error("keys must distinguish different shapes")
	}
	c3 := c1.Clone()
	if c1.Key() != c3.Key() {
		t.Error("clone must have identical key")
	}
	c3.K[0] = 9
	if c1.K[0] == 9 {
		t.Error("clone must be deep")
	}
}
