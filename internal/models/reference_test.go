package models

// The Go query builders the bundled property files replaced, kept as the
// reference the compiled specs/*.ltl queries are pinned to
// (TestQueriesMatchGoReference).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// bvLocsWithout returns Locs_v of the paper: every location a correct
// process may occupy while v is not in its contestants set.
func bvLocsWithout(a *ta.TA, v int) (ta.LocSet, error) {
	if v == 0 {
		return a.LocSetByName("V0", "V1", "B0", "B1", "B01", "C1", "CB1")
	}
	return a.LocSetByName("V0", "V1", "B0", "B1", "B01", "C0", "CB0")
}

// bvDelivered returns the set of locations where v has been delivered
// (v ∈ contestants): C_v, CB_v, C01.
func bvDelivered(a *ta.TA, v int) (ta.LocSet, error) {
	if v == 0 {
		return a.LocSetByName("C0", "CB0", "C01")
	}
	return a.LocSetByName("C1", "CB1", "C01")
}

// refBVQueries returns the counterexample queries for the four bv-broadcast
// properties of Section 3.2 (both symmetric instances each for
// Justification, Obligation, Uniformity, plus Termination):
//
//	BV-Just_v:  κ[Vv]=0 ⇒ □(κ[Cv]=0 ∧ κ[CBv]=0 ∧ κ[C01]=0)
//	BV-Obl_v:   □(b_v ≥ t+1 ⇒ ◇ all correct left Locs_v)
//	BV-Unif_v:  ◇ v delivered somewhere ⇒ ◇ all correct left Locs_v
//	BV-Term:    ◇ no correct process remains in V0,V1,B0,B1,B01
func refBVQueries(a *ta.TA) ([]spec.Query, error) {
	justice := a.DefaultJustice()
	var out []spec.Query
	for v := 0; v <= 1; v++ {
		vLoc, err := a.LocByName(fmt.Sprintf("V%d", v))
		if err != nil {
			return nil, err
		}
		delivered, err := bvDelivered(a, v)
		if err != nil {
			return nil, err
		}
		locsWithout, err := bvLocsWithout(a, v)
		if err != nil {
			return nil, err
		}
		bv, err := a.SharedByName(fmt.Sprintf("b%d", v))
		if err != nil {
			return nil, err
		}
		// b_v >= t+1 : t+1 correct processes bv-broadcast v.
		trigger := expr.Var(bv)
		if err := trigger.AddTerm(a.Params[1], -1); err != nil {
			return nil, err
		}
		if err := trigger.AddConst(-1); err != nil {
			return nil, err
		}

		out = append(out,
			spec.Query{
				Name:          fmt.Sprintf("BV-Just%d", v),
				Kind:          spec.Safety,
				InitEmpty:     []ta.LocID{vLoc},
				VisitNonempty: []ta.LocSet{delivered},
			},
			spec.Query{
				Name:          fmt.Sprintf("BV-Obl%d", v),
				Kind:          spec.Liveness,
				FinalShared:   []expr.Constraint{expr.GEZero(trigger)},
				FinalNonempty: []ta.LocSet{locsWithout},
				Justice:       justice,
			},
			spec.Query{
				Name:          fmt.Sprintf("BV-Unif%d", v),
				Kind:          spec.Liveness,
				VisitNonempty: []ta.LocSet{delivered},
				FinalNonempty: []ta.LocSet{locsWithout},
				Justice:       justice,
			},
		)
	}
	undelivered, err := a.LocSetByName("V0", "V1", "B0", "B1", "B01")
	if err != nil {
		return nil, err
	}
	out = append(out, spec.Query{
		Name:          "BV-Term",
		Kind:          spec.Liveness,
		FinalNonempty: []ta.LocSet{undelivered},
		Justice:       justice,
	})
	for i := range out {
		if err := out[i].Validate(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refNaiveQueries returns the Table 2 properties for the naive automaton:
// Inv1_0, Inv2_0 and SRoundTerm. Because the bv-broadcast structure is
// explicit here, the plain reliable-communication justice (DefaultJustice)
// is the appropriate fairness assumption for the liveness property.
func refNaiveQueries(a *ta.TA) ([]spec.Query, error) {
	oneRound := a.OneRound()
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

	nonFinal := make(ta.LocSet, len(a.Locations))
	for i, l := range a.Locations {
		if l.Name != "D0" && l.Name != "E0x" && l.Name != "E1x" {
			nonFinal[ta.LocID(i)] = true
		}
	}

	queries := []spec.Query{
		{
			Name:          "Inv1_0",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D0"), set("D1", "E1x")},
		},
		{
			Name:          "Inv2_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V0")},
			VisitNonempty: []ta.LocSet{set("D0", "E0x")},
		},
		{
			Name:          "SRoundTerm",
			Kind:          spec.Liveness,
			FinalNonempty: []ta.LocSet{nonFinal},
			Justice:       oneRound.DefaultJustice(),
		},
	}
	if err != nil {
		return nil, err
	}
	for i := range queries {
		if verr := queries[i].Validate(oneRound); verr != nil {
			return nil, verr
		}
	}
	return queries, nil
}

// refSimplifiedJustice returns the fairness assumptions of the simplified
// automaton, the Appendix F preconditions: the proven bv-broadcast
// properties expressed as justice requirements on the gadget locations, plus
// the reliable-communication ("business as usual") requirements on the aux
// thresholds and the round-progression locations.
//
// Crucially, the default per-rule justice of the raw bv rules s6/s7 (leave
// M0 when bvb1 >= 1) is NOT assumed — one initial broadcast does not
// guarantee delivery; only the BV-Obligation (threshold t+1) and
// BV-Uniformity (some aux sent) forms are sound, exactly as in the paper.
func refSimplifiedJustice(a *ta.TA) ([]ta.Justice, error) {
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

// refSimplifiedQueries returns the counterexample queries of Section 5 for the
// simplified automaton: the safety invariants Inv1/Inv2 (which imply
// Agreement and Validity), the liveness property SRoundTerm, and the
// auxiliary properties Dec and Good from which Theorem 6 derives Termination
// under the bv-fairness assumption.
func refSimplifiedQueries(a *ta.TA) ([]spec.Query, error) {
	justice, err := refSimplifiedJustice(a)
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

// refInv1CounterexampleQuery returns the Inv1_0 query with the resilience
// condition relaxed from n > 3t to n > 2t: the regime in which the paper
// reports generating a disagreement counterexample in ~4s (Section 6).
func refInv1CounterexampleQuery(a *ta.TA) (spec.Query, error) {
	queries, err := refSimplifiedQueries(a)
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

// refSTRBQueries returns the counterexample queries for the three reliable
// broadcast properties.
func refSTRBQueries(a *ta.TA) ([]spec.Query, error) {
	justice := a.DefaultJustice()
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
	queries := []spec.Query{
		{
			// Unforgeability: [](locV1 == 0) -> [](locAC == 0).
			Name:          "Unforgeability",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V1")},
			VisitNonempty: []ta.LocSet{set("AC")},
		},
		{
			// Correctness: [](locV0 == 0) -> <> all correct accepted.
			Name:          "Correctness",
			Kind:          spec.Liveness,
			InitEmpty:     []ta.LocID{loc("V0")},
			FinalNonempty: []ta.LocSet{set("V0", "V1", "SE")},
			Justice:       justice,
		},
		{
			// Relay: <>(locAC != 0) -> <> all correct accepted.
			Name:          "Relay",
			Kind:          spec.Liveness,
			VisitNonempty: []ta.LocSet{set("AC")},
			FinalNonempty: []ta.LocSet{set("V0", "V1", "SE")},
			Justice:       justice,
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

// refBoscoQueries returns the checkable forms of BOSCO's classic results.
func refBoscoQueries(a *ta.TA) ([]spec.Query, error) {
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

// refSBAJustice returns the fairness assumptions of the sba automaton — the
// executable protocol's retransmission-backed delivery guarantees expressed
// as justice requirements:
//
//   - start: correct processes eventually vote their estimate.
//   - lock obligation: t+1 correct votes of b trigger the amplification
//     cascade (every correct process echoes b, so n-t distinct senders
//     accumulate) and everyone eventually locks something. Since the
//     correct processes split n-f >= 2t+1 votes over two bits, at least one
//     bit always clears t+1, so W always drains in a fair run.
//   - lock uniformity: one correct first-lock of b (c_b >= 1) means n-t
//     distinct VOTE(b) broadcasts exist, at least t+1 of them from correct
//     processes whose retransmission reaches everyone — so every process
//     eventually locks b too (L_{1-b} drains into L01).
//   - exit: once the correct candidate count clears a threshold, every
//     correct candidate is eventually received and justified (its bit locks
//     everywhere by uniformity), so the n-t exit quorum completes.
//   - advance: exits of the first half eventually enter the second.
func refSBAJustice(a *ta.TA) ([]ta.Justice, error) {
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
		if err := addTrivial("start_I0"+half, "I0"+half); err != nil {
			return nil, err
		}
		if err := addTrivial("start_I1"+half, "I1"+half); err != nil {
			return nil, err
		}
		// Lock obligation: t+1 correct votes of b force everyone to lock.
		c, err := geTPlus1("v0" + half)
		if err2 := addTriggered("lock_obl0"+half, "W"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geTPlus1("v1" + half)
		if err2 := addTriggered("lock_obl1"+half, "W"+half, c, err); err2 != nil {
			return nil, err2
		}
		// Lock uniformity: one correct first-lock of b forces lock of b
		// everywhere.
		c, err = geConst("c0"+half, 1)
		if err2 := addTriggered("lock_unif0"+half, "L1"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geConst("c1"+half, 1)
		if err2 := addTriggered("lock_unif1"+half, "L0"+half, c, err); err2 != nil {
			return nil, err2
		}
		// Exit: enough correct candidates complete the n-t exit quorum.
		c, err = geNTF("c0" + half)
		if err2 := addTriggered("exit0"+half, "L0"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geNTF("c1" + half)
		if err2 := addTriggered("exit1"+half, "L1"+half, c, err); err2 != nil {
			return nil, err2
		}
		c, err = geNTF("c0"+half, "c1"+half)
		if err2 := addTriggered("exit01"+half, "L01"+half, c, err); err2 != nil {
			return nil, err2
		}
	}
	// End of the parity-0 half: processes proceed into the parity-1 half.
	for _, loc := range []string{"D0", "E1", "E01"} {
		if err := addTrivial("advance_"+loc, loc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refSBAQueries returns the counterexample queries for the sba automaton: the
// safety invariants Inv1 (agreement on the reduced bit — both decide
// locations and the opposite uniform exits are mutually unreachable), Inv2
// (strong validity — a bit nobody proposed is never decided or adopted),
// the lock-justification properties Lock0/Lock1, and the liveness property
// SBARoundTerm (every correct process finishes the superround under the
// justice assumptions).
func refSBAQueries(a *ta.TA) ([]spec.Query, error) {
	justice, err := refSBAJustice(a)
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
		"I0", "I1", "W", "L0", "L1", "L01", "D0", "E1", "E01",
		"I0x", "I1x", "Wx", "L0x", "L1x", "L01x",
	)

	queries := []spec.Query{
		{
			// (Inv1_0): ◇κ[D0]≠0 ⇒ □(κ[D1x]=0 ∧ κ[E1]=0)
			Name:          "Inv1_0",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D0"), set("D1x", "E1")},
		},
		{
			// (Inv1_1): ◇κ[D1x]≠0 ⇒ □(κ[D0]=0 ∧ κ[E0x]=0)
			Name:          "Inv1_1",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D1x"), set("D0", "E0x")},
		},
		{
			// (Inv2_0): □κ[I1]=0 ⇒ □(κ[D1x]=0 ∧ κ[E1]=0)
			Name:          "Inv2_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("I1")},
			VisitNonempty: []ta.LocSet{set("D1x", "E1")},
		},
		{
			// (Inv2_1): □κ[I0]=0 ⇒ □(κ[D0]=0 ∧ κ[E0x]=0)
			Name:          "Inv2_1",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("I0")},
			VisitNonempty: []ta.LocSet{set("D0", "E0x")},
		},
		{
			// (Lock_0): □κ[I0]=0 ⇒ □ no correct process ever locks 0.
			Name:          "Lock_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("I0")},
			VisitNonempty: []ta.LocSet{set("L0", "L01", "L0x", "L01x")},
		},
		{
			// (Lock_1): □κ[I1]=0 ⇒ □ no correct process ever locks 1.
			Name:          "Lock_1",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("I1")},
			VisitNonempty: []ta.LocSet{set("L1", "L01", "L1x", "L01x")},
		},
		{
			// (SBARoundTerm): ◇ every correct process reaches D1x, E0x or
			// E01x — the end of the superround.
			Name:          "SBARoundTerm",
			Kind:          spec.Liveness,
			FinalNonempty: []ta.LocSet{nonFinal},
			Justice:       justice,
		},
		{
			// (Quiet_0): □κ[L1]=0 ∧ □κ[L01]=0 ⇒ □κ[E1]=0 — a round in which
			// no correct process ever locks 1 cannot make a correct process
			// adopt 1. The GlobalEmpty form prunes the rule set, keeping this
			// lemma tractable for full schema enumeration (the incremental
			// prefix-sharing path), like simplified's Good queries.
			Name:          "Quiet_0",
			Kind:          spec.Safety,
			GlobalEmpty:   []ta.LocID{loc("L1"), loc("L01")},
			VisitNonempty: []ta.LocSet{set("E1")},
		},
		{
			// (Quiet_1): the parity-1 mirror — no lock of 0 in the second
			// half means no correct process leaves it estimating 0.
			Name:          "Quiet_1",
			Kind:          spec.Safety,
			GlobalEmpty:   []ta.LocID{loc("L0x"), loc("L01x")},
			VisitNonempty: []ta.LocSet{set("E0x")},
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

// TestQueriesMatchGoReference pins every bundled query compiled from
// specs/*.ltl to the Go builder it replaced: reflect.DeepEqual, so names,
// order, justice names and order and the resilience override all match.
func TestQueriesMatchGoReference(t *testing.T) {
	refs := map[string]func(*ta.TA) ([]spec.Query, error){
		"bv":         refBVQueries,
		"naive":      refNaiveQueries,
		"simplified": refSimplifiedQueries,
		"strb":       refSTRBQueries,
		"bosco":      refBoscoQueries,
		"sba":        refSBAQueries,
	}
	total := 0
	for _, m := range Bundled {
		a := m.TA()
		got, err := m.Queries(a)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want, err := refs[m.Name](a)
		if err != nil {
			t.Fatalf("%s reference: %v", m.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d queries, reference has %d", m.Name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: query %d differs from the reference:\n got %+v\nwant %+v", m.Name, i, got[i], want[i])
			}
		}
		total += len(got)
	}
	if total != 36 {
		t.Errorf("%d bundled queries, want 36", total)
	}
	a := SimplifiedConsensus()
	got, err := Inv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refInv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Inv1CounterexampleQuery differs from the reference:\n got %+v\nwant %+v", got, want)
	}
}
