package counter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/models"
	"repro/internal/ta"
)

func simplifiedSystem(t *testing.T, rounds int) (*System, *ta.TA) {
	t.Helper()
	a := models.SimplifiedConsensus()
	params := ParamsFor(a, 4, 1, 1)
	s, err := NewSystem(a, params, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestCheckCommClosed(t *testing.T) {
	for _, a := range []*ta.TA{models.SimplifiedConsensus(), models.NaiveConsensus()} {
		if err := CheckCommClosed(a); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	if err := CheckCommClosed(models.BVBroadcast()); err == nil {
		t.Error("bv-broadcast has no round switches; expected error")
	}
}

func TestEnlargedInitials(t *testing.T) {
	for _, a := range []*ta.TA{models.SimplifiedConsensus(), models.NaiveConsensus()} {
		if err := EnlargedInitials(a); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestInitialConfigValidation(t *testing.T) {
	s, a := simplifiedSystem(t, 2)
	v0 := a.MustLoc("V0")
	v1 := a.MustLoc("V1")
	if _, err := s.InitialConfig(map[ta.LocID]int64{v0: 2, v1: 1}); err != nil {
		t.Errorf("valid initial config rejected: %v", err)
	}
	if _, err := s.InitialConfig(map[ta.LocID]int64{v0: 1}); err == nil {
		t.Error("wrong total should be rejected")
	}
	if _, err := s.InitialConfig(map[ta.LocID]int64{a.MustLoc("M"): 3}); err == nil {
		t.Error("non-initial placement should be rejected")
	}
}

// randomRun drives the multi-round system with a seeded random scheduler
// (one process step at a time) and returns the generated steps.
func randomRun(t *testing.T, s *System, init Config, rng *rand.Rand, maxSteps int) []Step {
	t.Helper()
	var steps []Step
	cur := init.Clone()
	for i := 0; i < maxSteps; i++ {
		type cand struct {
			round, rule int
		}
		var cands []cand
		for r := 0; r < s.Rounds; r++ {
			for ri, rule := range s.TA.Rules {
				if rule.SelfLoop() {
					continue
				}
				en, err := s.Enabled(cur, r, ri)
				if err != nil {
					t.Fatal(err)
				}
				if en {
					cands = append(cands, cand{r, ri})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		st := Step{Round: pick.round, Rule: pick.rule, Factor: 1}
		next, err := s.Apply(cur, st)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		steps = append(steps, st)
	}
	return steps
}

// TestRoundRigidReduction is the empirical Appendix A theorem: every random
// asynchronous multi-round run of the (communication-closed) consensus
// automata reorders into a valid round-rigid run with the same final
// configuration.
func TestRoundRigidReduction(t *testing.T) {
	models := []func() *ta.TA{models.SimplifiedConsensus, models.NaiveConsensus}
	for _, mk := range models {
		a := mk()
		params := ParamsFor(a, 4, 1, 1)
		s, err := NewSystem(a, params, 3)
		if err != nil {
			t.Fatal(err)
		}
		v0, v1 := a.MustLoc("V0"), a.MustLoc("V1")

		prop := func(seed int64, split uint8) bool {
			k0 := int64(split % 4)
			init, err := s.InitialConfig(map[ta.LocID]int64{v0: k0, v1: 3 - k0})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			steps := randomRun(t, s, init, rng, 120)
			rigid, err := s.Verify(Run{Init: init, Steps: steps})
			if err != nil {
				t.Logf("%s seed=%d: %v", a.Name, seed, err)
				return false
			}
			return IsRoundRigid(rigid)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestRoundRigidPreservesPerRoundEffects: beyond final-configuration
// equality, the per-round shared-variable totals are identical — the basis
// for LTL-X preservation.
func TestRoundRigidPreservesPerRoundEffects(t *testing.T) {
	s, a := simplifiedSystem(t, 3)
	v0, v1 := a.MustLoc("V0"), a.MustLoc("V1")
	init, err := s.InitialConfig(map[ta.LocID]int64{v0: 2, v1: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	steps := randomRun(t, s, init, rng, 200)

	origTrace, err := s.Replay(Run{Init: init, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	rigid := RoundRigid(steps)
	rigidTrace, err := s.Replay(Run{Init: init, Steps: rigid})
	if err != nil {
		t.Fatal(err)
	}
	of := origTrace[len(origTrace)-1]
	rf := rigidTrace[len(rigidTrace)-1]
	ns := len(a.Shared)
	for i := range of.V {
		if of.V[i] != rf.V[i] {
			t.Errorf("round %d shared %d: %d vs %d", i/ns, i%ns, of.V[i], rf.V[i])
		}
	}
}

func TestIsRoundRigid(t *testing.T) {
	if !IsRoundRigid([]Step{{Round: 0}, {Round: 0}, {Round: 1}}) {
		t.Error("nondecreasing rounds should be rigid")
	}
	if IsRoundRigid([]Step{{Round: 1}, {Round: 0}}) {
		t.Error("decreasing rounds should not be rigid")
	}
}

func TestRoundSwitchCrossesRounds(t *testing.T) {
	s, a := simplifiedSystem(t, 2)
	v1 := a.MustLoc("V1")
	init, err := s.InitialConfig(map[ta.LocID]int64{v1: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive all three processes to D1 -> V1x ... second half -> E1x, then
	// switch into round 1. Unanimous value 1: V1 -> M -> M1 -> D1.
	script := []string{"s2", "s4", "s8", "s14", "s2x", "s4x", "s8x", "rsE1x"}
	cur := init
	for _, name := range script {
		ri := -1
		for i, r := range a.Rules {
			if r.Name == name {
				ri = i
			}
		}
		if ri == -1 {
			t.Fatalf("no rule %s", name)
		}
		next, err := s.Apply(cur, Step{Round: 0, Rule: ri, Factor: 3})
		if err != nil {
			t.Fatalf("rule %s: %v", name, err)
		}
		cur = next
	}
	if got := cur.K[len(a.Locations)+int(v1)]; got != 3 {
		t.Errorf("after round switch: round-1 V1 = %d, want 3", got)
	}
	if cur.K[a.MustLoc("E1x")] != 0 {
		t.Error("round-0 E1x should have drained")
	}
}

// Communication-closure and round-rigidity of the multi-round sba automaton:
// the Appendix A reduction argument must apply to the new front-end's spec
// exactly as it does to the consensus automata, or its round-switch
// structure would not justify the one-round verification the schema plane
// performs.

func sbaSystem(t *testing.T, rounds int) (*System, *ta.TA) {
	t.Helper()
	a := models.SBA()
	params := ParamsFor(a, 4, 1, 1)
	s, err := NewSystem(a, params, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

// TestSBACommClosed: the sba automaton satisfies the structural
// communication-closure conditions (guards over per-round shared variables
// only; unguarded, update-free round switches).
func TestSBACommClosed(t *testing.T) {
	a := models.SBA()
	if err := CheckCommClosed(a); err != nil {
		t.Error(err)
	}
	if err := EnlargedInitials(a); err != nil {
		t.Error(err)
	}
}

// TestSBAMutatedRoundSwitchRejected: communication closure is not vacuous —
// grafting a guard or an update onto one of sba's round-switch rules must
// make the structural check fail.
func TestSBAMutatedRoundSwitchRejected(t *testing.T) {
	findRule := func(a *ta.TA, name string) int {
		for i, r := range a.Rules {
			if r.Name == name {
				return i
			}
		}
		t.Fatalf("no rule %s", name)
		return -1
	}

	a := models.SBA()
	rs := findRule(a, "rsD1x")
	donor := findRule(a, "s3") // guarded rule with an update
	a.Rules[rs].Guard = a.Rules[donor].Guard
	if err := CheckCommClosed(a); err == nil {
		t.Error("guarded round-switch rule accepted")
	}

	a = models.SBA()
	rs = findRule(a, "rsE0x")
	donor = findRule(a, "s3")
	a.Rules[rs].Update = a.Rules[donor].Update
	if err := CheckCommClosed(a); err == nil {
		t.Error("round-switch rule with updates accepted")
	}
}

// TestSBARoundRigidReduction: every random asynchronous multi-round sba run
// reorders into a valid round-rigid run with the same final configuration —
// the empirical form of the Appendix A theorem for the new automaton.
func TestSBARoundRigidReduction(t *testing.T) {
	s, a := sbaSystem(t, 3)
	i0, i1 := a.MustLoc("I0"), a.MustLoc("I1")

	prop := func(seed int64, split uint8) bool {
		k0 := int64(split % 4)
		init, err := s.InitialConfig(map[ta.LocID]int64{i0: k0, i1: 3 - k0})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		steps := randomRun(t, s, init, rng, 120)
		rigid, err := s.Verify(Run{Init: init, Steps: steps})
		if err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return IsRoundRigid(rigid)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSBARoundSwitchCrossesRounds drives a unanimous-1 superround through
// the automaton and checks the decide-1 exit switches the population into
// round 1's I1.
func TestSBARoundSwitchCrossesRounds(t *testing.T) {
	s, a := sbaSystem(t, 2)
	i1 := a.MustLoc("I1")
	init, err := s.InitialConfig(map[ta.LocID]int64{i1: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Unanimous 1: vote, lock 1, exit uniform-1 (estimate stays 1), enter the
	// parity-1 half, decide 1 there, then switch rounds.
	script := []string{"s2", "s4", "s8", "s13", "s2x", "s4x", "s8x", "rsD1x"}
	cur := init
	for _, name := range script {
		ri := -1
		for i, r := range a.Rules {
			if r.Name == name {
				ri = i
			}
		}
		if ri == -1 {
			t.Fatalf("no rule %s", name)
		}
		next, err := s.Apply(cur, Step{Round: 0, Rule: ri, Factor: 3})
		if err != nil {
			t.Fatalf("rule %s: %v", name, err)
		}
		cur = next
	}
	if got := cur.K[len(a.Locations)+int(i1)]; got != 3 {
		t.Errorf("after round switch: round-1 I1 = %d, want 3", got)
	}
	if cur.K[a.MustLoc("D1x")] != 0 {
		t.Error("round-0 D1x should have drained")
	}
}

// TestReplayRejectsBadRuns: Replay, and Verify through it, validate the
// initial configuration and every step's indices in every round, so a bad
// run is an error rather than a panic or a certified reordering.
func TestReplayRejectsBadRuns(t *testing.T) {
	s, a := simplifiedSystem(t, 2)
	nl, ns := len(a.Locations), len(a.Shared)
	v0, s2 := a.MustLoc("V0"), -1
	for i, r := range a.Rules {
		if r.Name == "s2" {
			s2 = i
		}
	}
	good, err := s.InitialConfig(map[ta.LocID]int64{v0: 3})
	if err != nil {
		t.Fatal(err)
	}
	lateStart := good.Clone()
	lateStart.K[v0], lateStart.K[nl+int(v0)] = 0, 3
	sharedSet := good.Clone()
	sharedSet.V[ns] = 5
	for _, c := range []struct {
		name, want string
		run        Run
	}{
		{"bad rule index", "unknown rule 999", Run{Init: good, Steps: []Step{{Rule: 999, Factor: 1}}}},
		{"bad round", "cannot fire in round 2", Run{Init: good, Steps: []Step{{Round: 2, Rule: s2, Factor: 1}}}},
		{"processes outside round 0's initial locations", "non-initial location V0@1", Run{Init: lateStart}},
		{"non-zero V", "starts at 5", Run{Init: sharedSet}},
	} {
		if _, err := s.Replay(c.run); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Replay error %v, want one naming %q", c.name, err, c.want)
		}
		if _, err := s.Verify(c.run); err == nil {
			t.Errorf("%s: Verify accepted the run", c.name)
		}
	}
}
