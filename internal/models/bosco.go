package models

import (
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// Bosco builds a threshold automaton for BOSCO, the one-step Byzantine
// asynchronous consensus of Song and van Renesse (DISC'08) — reference [63]
// of the paper and a standard benchmark of parameterized TA verification.
// Each process broadcasts its vote, waits for n-t VOTE messages and then:
//
//   - decides v if more than (n+3t)/2 of the received votes are v;
//   - otherwise adopts v for the underlying consensus if more than (n-t)/2
//     of them are v;
//   - otherwise keeps its own value (location UU).
//
// The adversary chooses which n-t of the available messages arrive, so the
// automaton's guards are the *possibility* conditions for each outcome,
// derived by quantifier elimination over the received counts cnt0, cnt1
// (cnt0 + cnt1 = n-t, cnt_v <= x_v + f, with x_v the votes sent by correct
// processes):
//
//	decide 0:  2(x0+f) >= n+3t+1   ∧  2(n-t) >= n+3t+1 (param: n > 5t)
//	adopt 0:   2(x0+f) >= n-t+1    ∧  2(x1+f) >= n-5t   (sample cannot
//	           avoid being a decide-0 sample otherwise — this conjunct is
//	           the branch priority of the algorithm: adopt fires only when
//	           some sample adopts WITHOUT satisfying the decide threshold)
//	keep own:  2(x_v+f) >= n-t for both v
//
// all conjoined with availability x0 + x1 + f >= n-t.
//
// The classic results become checkable queries (BoscoQueries):
// one-step lemma/agreement under n > 3t; weakly one-step termination in one
// communication step under n > 5t when f = 0 and inputs are unanimous;
// strongly one-step under n > 7t with any f <= t; and the gap in between,
// where the checker produces the adopt-instead-of-decide counterexample.
func Bosco() *ta.TA { return mustParse("bosco.ta") }

// BoscoQueries returns the checkable forms of BOSCO's classic results.
func BoscoQueries(a *ta.TA) ([]spec.Query, error) {
	var err error
	set := func(names ...string) ta.LocSet {
		s, serr := a.LocSetByName(names...)
		if serr != nil && err == nil {
			err = serr
		}
		return s
	}
	loc := func(name string) ta.LocID {
		id, lerr := a.LocByName(name)
		if lerr != nil && err == nil {
			err = lerr
		}
		return id
	}
	n, t, f := a.Params[0], a.Params[1], a.Params[2]
	resWith := func(extra int64, pinFZero bool) []expr.Constraint {
		// n >= extra*t + 1, t >= f >= 0, t >= 1 (+ optionally f == 0).
		nGe := expr.Var(n)
		_ = nGe.AddTerm(t, -extra)
		_ = nGe.AddConst(-1)
		tGeF := expr.Var(t)
		_ = tGeF.AddTerm(f, -1)
		tGe1 := expr.Var(t)
		_ = tGe1.AddConst(-1)
		out := []expr.Constraint{
			expr.GEZero(nGe), expr.GEZero(tGeF), expr.GEZero(expr.Var(f)), expr.GEZero(tGe1),
		}
		if pinFZero {
			out = append(out, expr.EQZero(expr.Var(f)))
		}
		return out
	}
	notD0 := set("V0", "V1", "S0", "S1", "D1", "U0", "U1", "UU")

	queries := []spec.Query{
		{
			// BOSCO Lemma 1 (n > 3t): a one-step decision for 0 forces every
			// other correct process to decide 0 or adopt 0.
			Name:          "Lemma1_0",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D0"), set("D1", "U1", "UU")},
		},
		{
			Name:          "Lemma1_1",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D1"), set("D0", "U0", "UU")},
		},
		{
			// Weakly one-step (n > 5t, f = 0): unanimous correct inputs
			// decide in one communication step.
			Name:            "WeaklyOneStep",
			Kind:            spec.Liveness,
			InitEmpty:       []ta.LocID{loc("V1")},
			FinalNonempty:   []ta.LocSet{notD0},
			Justice:         a.DefaultJustice(),
			RelaxResilience: resWith(5, true),
		},
		{
			// Strongly one-step (n > 7t): unanimous correct inputs decide in
			// one step regardless of the f <= t Byzantine votes.
			Name:            "StronglyOneStep",
			Kind:            spec.Liveness,
			InitEmpty:       []ta.LocID{loc("V1")},
			FinalNonempty:   []ta.LocSet{notD0},
			Justice:         a.DefaultJustice(),
			RelaxResilience: resWith(7, false),
		},
		{
			// The gap: with only n > 5t and real faults, Byzantine votes can
			// push a correct process into adopting instead of deciding —
			// the checker must produce this counterexample.
			Name:            "OneStepGap",
			Kind:            spec.Liveness,
			InitEmpty:       []ta.LocID{loc("V1")},
			FinalNonempty:   []ta.LocSet{notD0},
			Justice:         a.DefaultJustice(),
			RelaxResilience: resWith(5, false),
		},
	}
	if err != nil {
		return nil, err
	}
	for i := range queries {
		if verr := queries[i].Validate(a); verr != nil {
			return nil, verr
		}
	}
	return queries, nil
}
