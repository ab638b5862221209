package schema

import (
	"math/rand"
	"testing"

	"repro/internal/counter"
	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
)

// TestCrossValidationRandomQueries is the strongest soundness test of the
// whole verification stack: random queries over the bv-broadcast automaton
// are decided by (a) the staged engine, (b) full enumeration and (c) the
// explicit-state checker for several fixed parameter instances, and the
// verdicts must be consistent:
//
//   - the two parameterized engines must agree exactly;
//   - "holds" is a universal statement, so every explicit instance must
//     also report holds;
//   - "violated" comes with a replay-certified counterexample at specific
//     parameters; the explicit checker at those parameters must confirm the
//     violation (when it fits the explicit checker's reach).
func TestCrossValidationRandomQueries(t *testing.T) {
	a := models.BVBroadcast()
	oneRound := a.OneRound()
	rng := rand.New(rand.NewSource(20220410))

	staged := newEngine(t, a, Staged)
	full := newEngine(t, a, FullEnumeration)

	instances := [][3]int64{{4, 1, 1}, {4, 1, 0}, {5, 1, 1}}

	// predClose turns a random set into a predecessor-closed one.
	predClose := func(s ta.LocSet) ta.LocSet {
		out := make(ta.LocSet, len(s))
		for l := range s {
			out[l] = true
		}
		for changed := true; changed; {
			changed = false
			for _, r := range oneRound.Rules {
				if r.SelfLoop() || r.RoundSwitch {
					continue
				}
				if out[r.To] && !out[r.From] {
					out[r.From] = true
					changed = true
				}
			}
		}
		return out
	}
	randSet := func(maxSize int) ta.LocSet {
		s := make(ta.LocSet)
		n := 1 + rng.Intn(maxSize)
		for i := 0; i < n; i++ {
			s[ta.LocID(rng.Intn(len(a.Locations)))] = true
		}
		return s
	}

	const trials = 40
	for trial := 0; trial < trials; trial++ {
		q := spec.Query{Name: "random", Kind: spec.Safety}
		// Optional premise: V0 and/or V1 empty initially.
		if rng.Intn(3) == 0 {
			q.InitEmpty = append(q.InitEmpty, a.MustLoc("V0"))
		}
		if rng.Intn(4) == 0 {
			q.InitEmpty = append(q.InitEmpty, a.MustLoc("V1"))
		}
		// 1-2 visit witnesses.
		for i := 0; i <= rng.Intn(2); i++ {
			q.VisitNonempty = append(q.VisitNonempty, randSet(3))
		}
		// Half the queries are liveness with a pred-closed goal violation.
		if rng.Intn(2) == 0 {
			q.Kind = spec.Liveness
			q.FinalNonempty = []ta.LocSet{predClose(randSet(2))}
			q.Justice = oneRound.DefaultJustice()
		}
		if err := q.Validate(oneRound); err != nil {
			continue // some random combinations are structurally invalid
		}

		rs, err := staged.Check(&q)
		if err != nil {
			t.Fatalf("trial %d: staged: %v", trial, err)
		}
		rf, err := full.Check(&q)
		if err != nil {
			t.Fatalf("trial %d: full: %v", trial, err)
		}
		if rs.Outcome != rf.Outcome {
			t.Errorf("trial %d: staged=%v full=%v for query %+v", trial, rs.Outcome, rf.Outcome, q)
			continue
		}

		switch rs.Outcome {
		case spec.Holds:
			for _, inst := range instances {
				sys, err := counter.NewSystem(oneRound, counter.ParamsFor(oneRound, inst[0], inst[1], inst[2]), 1)
				if err != nil {
					t.Fatal(err)
				}
				res, err := counter.CheckQueryExplicit(sys, &q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != spec.Holds {
					t.Errorf("trial %d: parameterized holds but explicit n=%d t=%d f=%d says %v\nquery: %+v\nwitness: %s",
						trial, inst[0], inst[1], inst[2], res.Outcome, q, sys.String(res.Witness))
				}
			}
		case spec.Violated:
			ce := rs.CE
			if ce == nil {
				t.Errorf("trial %d: violated without counterexample", trial)
				continue
			}
			n := ce.Params[a.Params[0]]
			tt := ce.Params[a.Params[1]]
			f := ce.Params[a.Params[2]]
			if n > 9 {
				continue // too large for explicit confirmation
			}
			sys, err := counter.NewSystem(oneRound, counter.ParamsFor(oneRound, n, tt, f), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := counter.CheckQueryExplicit(sys, &q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != spec.Violated {
				t.Errorf("trial %d: counterexample at n=%d t=%d f=%d but explicit says %v\nquery: %+v\nce:\n%s",
					trial, n, tt, f, res.Outcome, q, ce.Format())
			}
		default:
			t.Errorf("trial %d: unexpected outcome %v", trial, rs.Outcome)
		}
	}
}

// TestCrossValidationSimplifiedInstances repeats the holds-direction check
// on the simplified consensus automaton: every property the parameterized
// engine verifies must hold explicitly for small instances — including
// liveness with the gadget justice.
func TestCrossValidationSimplifiedInstances(t *testing.T) {
	a := models.SimplifiedConsensus()
	oneRound := a.OneRound()
	qs, err := models.Named("simplified").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine(t, a, Staged)
	for _, q := range qs {
		res := check(t, engine, q)
		if res.Outcome != spec.Holds {
			t.Errorf("%s: %v", q.Name, res.Outcome)
			continue
		}
		for _, inst := range [][3]int64{{4, 1, 1}, {4, 1, 0}} {
			sys, err := counter.NewSystem(oneRound, counter.ParamsFor(oneRound, inst[0], inst[1], inst[2]), 1)
			if err != nil {
				t.Fatal(err)
			}
			eres, err := counter.CheckQueryExplicit(sys, &q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if eres.Outcome != spec.Holds {
				t.Errorf("%s: parameterized holds, explicit n=%d t=%d f=%d says %v",
					q.Name, inst[0], inst[1], inst[2], eres.Outcome)
			}
		}
	}
}
