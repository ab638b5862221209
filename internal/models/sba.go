package models

import (
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// SBA builds the multi-round threshold automaton of the SBA* binary
// reduction implemented executably in internal/sba (a Turpin–Coan
// adaptation for n > 3t with a rotating round-parity default). One traversal
// models a *superround*: a parity-0 round (first, unprimed half — decide
// value 0) followed by a parity-1 round (second, "x"-suffixed half — decide
// value 1), connected by mid-superround rules; round-switch rules close the
// loop into the next superround.
//
// Locations of the first half (second half is symmetric, deciding 1):
//
//	I0,I1: start of the round with estimate 0 resp. 1
//	W:     step-1 vote broadcast, nothing locked yet
//	L0,L1: first lock on bit 0 resp. 1; the step-2 candidate was broadcast
//	L01:   both bits locked
//	D0:    chosen candidates uniformly 0 = parity: decided 0
//	E1:    chosen candidates uniformly 1: estimate set to 1
//	E01:   chosen candidates mixed: estimate set to the parity (0)
//
// Shared variables: v0/v1 count correct processes whose estimate entering
// the round is 0/1 (their step-1 votes), c0/c1 count step-2 candidates
// broadcast by correct processes for bit 0/1.
//
// The lock guards are justification-only (v_b >= 1): a lock on b needs
// n - t distinct vote senders, hence at least one correct vote of b, and
// tracing echoes back through the t+1 amplification threshold bottoms out
// at a correct process that *started* the round estimating b. The exit
// guards carry the real thresholds: n - t justified candidates minus the f
// the adversary may contribute leaves c >= n - t - f correct ones. Mixed
// exits additionally require both bits locked locally, which is the L01
// location, not a guard.
func SBA() *ta.TA { return mustParse("sba.ta") }

// SBAJustice returns the fairness assumptions of the sba automaton — the
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
func SBAJustice(a *ta.TA) ([]ta.Justice, error) {
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

// SBAQueries returns the counterexample queries for the sba automaton: the
// safety invariants Inv1 (agreement on the reduced bit — both decide
// locations and the opposite uniform exits are mutually unreachable), Inv2
// (strong validity — a bit nobody proposed is never decided or adopted),
// the lock-justification properties Lock0/Lock1, and the liveness property
// SBARoundTerm (every correct process finishes the superround under the
// justice assumptions).
func SBAQueries(a *ta.TA) ([]spec.Query, error) {
	justice, err := SBAJustice(a)
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
