package models

import (
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// SimplifiedConsensus builds the simplified threshold automaton of the DBFT
// binary Byzantine consensus (Fig. 4). One traversal models a *superround*:
// an odd round of Algorithm 1 (first, unprimed half — decided value 1)
// followed by an even round (second, primed half — decided value 0). The
// verified bv-broadcast of Fig. 2 is replaced by the gadget locations
// M/M0/M1/M01 whose fairness properties (Appendix F) stand in for the proven
// BV properties.
//
// Locations of the first half (second half is symmetric with an "x" suffix,
// deciding 0 instead of 1):
//
//	V0,V1: start of the round with estimate 0 resp. 1
//	M:     bv-broadcast invoked, contestants still empty
//	M0,M1: contestants = {0} resp. {1}; the aux message was broadcast
//	M01:   contestants = {0,1}
//	E0:    qualifiers = {0}: estimate set to 0
//	E1:    qualifiers = {0,1}: estimate set to the round parity (1)
//	D1:    qualifiers = {1} = parity: decided 1
//
// Shared variables: bvb0/bvb1 count correct processes that bv-broadcast 0/1
// (incremented on entering M), a0/a1 count aux messages sent by correct
// processes for value 0/1.
func SimplifiedConsensus() *ta.TA { return mustParse("simplified.ta") }

// SimplifiedJustice returns the fairness assumptions of the simplified
// automaton, the Appendix F preconditions: the proven bv-broadcast
// properties expressed as justice requirements on the gadget locations, plus
// the reliable-communication ("business as usual") requirements on the aux
// thresholds and the round-progression locations.
//
// Crucially, the default per-rule justice of the raw bv rules s6/s7 (leave
// M0 when bvb1 >= 1) is NOT assumed — one initial broadcast does not
// guarantee delivery; only the BV-Obligation (threshold t+1) and
// BV-Uniformity (some aux sent) forms are sound, exactly as in the paper.
func SimplifiedJustice(a *ta.TA) ([]ta.Justice, error) {
	tab := a.Table
	mustSym := func(name string) expr.Sym { return tab.Lookup(name) }
	geConst := func(name string, c int64) (expr.Constraint, error) {
		l := expr.Var(mustSym(name))
		if err := l.AddConst(-c); err != nil {
			return expr.Constraint{}, err
		}
		return expr.GEZero(l), nil
	}
	// v >= t+1
	geTPlus1 := func(name string) (expr.Constraint, error) {
		l := expr.Var(mustSym(name))
		if err := l.AddTerm(a.Params[1], -1); err != nil {
			return expr.Constraint{}, err
		}
		if err := l.AddConst(-1); err != nil {
			return expr.Constraint{}, err
		}
		return expr.GEZero(l), nil
	}
	// Σ names >= n-t-f
	geNTF := func(names ...string) (expr.Constraint, error) {
		l := expr.Lin{}
		for _, nm := range names {
			if err := l.AddTerm(mustSym(nm), 1); err != nil {
				return expr.Constraint{}, err
			}
		}
		if err := l.AddTerm(a.Params[0], -1); err != nil {
			return expr.Constraint{}, err
		}
		if err := l.AddTerm(a.Params[1], 1); err != nil {
			return expr.Constraint{}, err
		}
		if err := l.AddTerm(a.Params[2], 1); err != nil {
			return expr.Constraint{}, err
		}
		return expr.GEZero(l), nil
	}

	var out []ta.Justice
	addTrivial := func(name, loc string) error {
		id, err := a.LocByName(loc)
		if err != nil {
			return err
		}
		out = append(out, ta.Justice{Name: name, Loc: id})
		return nil
	}
	addTriggered := func(name, loc string, trig expr.Constraint, terr error) error {
		if terr != nil {
			return terr
		}
		id, err := a.LocByName(loc)
		if err != nil {
			return err
		}
		out = append(out, ta.Justice{Name: name, Trigger: []expr.Constraint{trig}, Loc: id})
		return nil
	}

	for _, half := range []string{"", "x"} {
		// Processes start the round / half.
		if err := addTrivial("start_V0"+half, "V0"+half); err != nil {
			return nil, err
		}
		if err := addTrivial("start_V1"+half, "V1"+half); err != nil {
			return nil, err
		}
		// BV-Termination: contestants eventually nonempty.
		if err := addTrivial("bv_term"+half, "M"+half); err != nil {
			return nil, err
		}
		// BV-Obligation: t+1 correct broadcasts of v force delivery of v.
		c, err := geTPlus1("bvb0" + half)
		if err2 := addTriggered("bv_obl0"+half, "M1"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geTPlus1("bvb1" + half)
		if err2 := addTriggered("bv_obl1"+half, "M0"+half, c, err); err2 != nil {
			return nil, err2
		}
		// BV-Uniformity: one correct delivery of v forces delivery everywhere.
		c, err = geConst("a0"+half, 1)
		if err2 := addTriggered("bv_unif0"+half, "M1"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geConst("a1"+half, 1)
		if err2 := addTriggered("bv_unif1"+half, "M0"+half, c, err); err2 != nil {
			return nil, err2
		}
		// Business as usual: reliable communication on the aux thresholds.
		c, err = geNTF("a0" + half)
		if err2 := addTriggered("aux0"+half, "M0"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geNTF("a1" + half)
		if err2 := addTriggered("aux1"+half, "M1"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geNTF("a0"+half, "a1"+half)
		if err2 := addTriggered("aux01"+half, "M01"+half, c, err); err2 != nil {
			return nil, err2
		}
	}
	// End of the odd half: processes proceed into the even half.
	for _, loc := range []string{"E0", "E1", "D1"} {
		if err := addTrivial("advance_"+loc, loc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SimplifiedQueries returns the counterexample queries of Section 5 for the
// simplified automaton: the safety invariants Inv1/Inv2 (which imply
// Agreement and Validity), the liveness property SRoundTerm, and the
// auxiliary properties Dec and Good from which Theorem 6 derives Termination
// under the bv-fairness assumption.
func SimplifiedQueries(a *ta.TA) ([]spec.Query, error) {
	justice, err := SimplifiedJustice(a)
	if err != nil {
		return nil, err
	}
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

	nonFinal := set(
		"V0", "V1", "M", "M0", "M1", "M01", "E0", "E1", "D1",
		"V0x", "V1x", "Mx", "M0x", "M1x", "M01x",
	)

	queries := []spec.Query{
		{
			// (Inv1_0): ◇κ[D0]≠0 ⇒ □(κ[D1]=0 ∧ κ[E1x]=0)
			Name:          "Inv1_0",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D0"), set("D1", "E1x")},
		},
		{
			// (Inv1_1): ◇κ[D1]≠0 ⇒ □(κ[D0]=0 ∧ κ[E0x]=0)
			Name:          "Inv1_1",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D1"), set("D0", "E0x")},
		},
		{
			// (Inv2_0): □κ[V0]=0 ⇒ □(κ[D0]=0 ∧ κ[E0x]=0)
			Name:          "Inv2_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V0")},
			VisitNonempty: []ta.LocSet{set("D0", "E0x")},
		},
		{
			// (Inv2_1): □κ[V1]=0 ⇒ □(κ[D1]=0 ∧ κ[E1x]=0)
			Name:          "Inv2_1",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V1")},
			VisitNonempty: []ta.LocSet{set("D1", "E1x")},
		},
		{
			// (SRoundTerm): ◇ every correct process reaches D0, E0x or E1x.
			Name:          "SRoundTerm",
			Kind:          spec.Liveness,
			FinalNonempty: []ta.LocSet{nonFinal},
			Justice:       justice,
		},
		{
			// (Dec), first conjunct: □κ[V0]=0 ⇒ □(κ[E0]=0 ∧ κ[E1]=0)
			Name:          "Dec_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V0")},
			VisitNonempty: []ta.LocSet{set("E0", "E1")},
		},
		{
			// (Dec), second conjunct: □κ[V1]=0 ⇒ □(κ[E0x]=0 ∧ κ[E1x]=0)
			Name:          "Dec_1",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V1")},
			VisitNonempty: []ta.LocSet{set("E0x", "E1x")},
		},
		{
			// (Good), first conjunct: □κ[M0]=0 ⇒ □(κ[D0]=0 ∧ κ[E0x]=0)
			Name:          "Good_0",
			Kind:          spec.Safety,
			GlobalEmpty:   []ta.LocID{loc("M0")},
			VisitNonempty: []ta.LocSet{set("D0", "E0x")},
		},
		{
			// (Good), second conjunct: □κ[M1x]=0 ⇒ □κ[E1x]=0
			Name:          "Good_1",
			Kind:          spec.Safety,
			GlobalEmpty:   []ta.LocID{loc("M1x")},
			VisitNonempty: []ta.LocSet{set("E1x")},
		},
	}
	if err != nil {
		return nil, err
	}
	oneRound := a.OneRound()
	for i := range queries {
		if verr := queries[i].Validate(oneRound); verr != nil {
			return nil, verr
		}
	}
	return queries, nil
}

// Inv1CounterexampleQuery returns the Inv1_0 query with the resilience
// condition relaxed from n > 3t to n > 2t: the regime in which the paper
// reports generating a disagreement counterexample in ~4s (Section 6).
func Inv1CounterexampleQuery(a *ta.TA) (spec.Query, error) {
	queries, err := SimplifiedQueries(a)
	if err != nil {
		return spec.Query{}, err
	}
	var q spec.Query
	for _, cand := range queries {
		if cand.Name == "Inv1_0" {
			q = cand
		}
	}
	q.Name = "Inv1_0-no-resilience"
	n, t, f := a.Params[0], a.Params[1], a.Params[2]
	// n >= 2t+1, t >= f >= 0, t >= 1: Byzantine processes may now reach a
	// third of the system.
	nGe := expr.Var(n)
	if err := nGe.AddTerm(t, -2); err != nil {
		return spec.Query{}, err
	}
	if err := nGe.AddConst(-1); err != nil {
		return spec.Query{}, err
	}
	tGeF := expr.Var(t)
	if err := tGeF.AddTerm(f, -1); err != nil {
		return spec.Query{}, err
	}
	tGe1 := expr.Var(t)
	if err := tGe1.AddConst(-1); err != nil {
		return spec.Query{}, err
	}
	q.RelaxResilience = []expr.Constraint{
		expr.GEZero(nGe),
		expr.GEZero(tGeF),
		expr.GEZero(expr.Var(f)),
		expr.GEZero(tGe1),
	}
	return q, nil
}
