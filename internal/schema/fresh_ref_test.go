package schema

import (
	"testing"
	"time"

	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
)

// The from-scratch solve strategy: every full-mode schema gets its own
// encoding and solver, with no prefix sharing. The shipped solve loop
// (solveRange) walks incremental cursors instead; this is the reference the
// cross-validation tests and the ablation benchmark compare it against —
// same verdicts, counterexamples and slot counts, different solver-effort
// attribution.

// The reference also keeps the three per-call loops the structural table
// (analysis.go, segment) replaced — reachability, enabled-rule selection and
// unlockability recomputed from a map-typed unlocked set on every call — so
// the table is checked against an independent definition (the PR 15
// dense-kernel pattern).

// refReachUnder computes the locations reachable from the initial locations
// via rules whose guard conjuncts are all unlocked.
func refReachUnder(e *Engine, an *analysis, unlocked map[int]bool) map[ta.LocID]bool {
	reach := make(map[ta.LocID]bool, len(e.ta.Locations))
	for _, l := range an.initLocs {
		reach[l] = true
	}
	for changed := true; changed; {
		changed = false
		for i, ri := range an.rules {
			r := e.ta.Rules[ri]
			if !reach[r.From] || reach[r.To] {
				continue
			}
			ok := true
			for _, gi := range an.ruleGuards[i] {
				if !unlocked[gi] {
					ok = false
					break
				}
			}
			if ok {
				reach[r.To] = true
				changed = true
			}
		}
	}
	return reach
}

// refAddSegment appends one accelerated slot (eager guards) per rule whose
// source location is reachable and whose guard conjuncts are all unlocked.
func refAddSegment(enc *encoding, unlocked map[int]bool) error {
	e := enc.e
	reach := refReachUnder(e, enc.an, unlocked)
	for i, ri := range enc.an.rules {
		r := e.ta.Rules[ri]
		if !reach[r.From] {
			continue
		}
		ok := true
		for _, gi := range enc.an.ruleGuards[i] {
			if !unlocked[gi] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := enc.addSlot(ri, false); err != nil {
			return err
		}
	}
	return nil
}

// refUnlockable reports whether the guard could become true next, given the
// currently unlocked set: it is satisfiable with zero increments, or some
// rule whose guards are unlocked increments one of its variables.
func refUnlockable(e *Engine, an *analysis, unlocked map[int]bool, gi int) bool {
	g := an.guards[gi]
	if g.initiallyTrue {
		return true
	}
	for i, ri := range an.rules {
		r := e.ta.Rules[ri]
		enabled := true
		for _, gj := range an.ruleGuards[i] {
			if !unlocked[gj] {
				enabled = false
				break
			}
		}
		if !enabled {
			continue
		}
		for _, v := range g.vars {
			if d, ok := r.Update[v]; ok && d > 0 {
				return true
			}
		}
	}
	return false
}

// solveSchema encodes and solves the schema for one ordered guard context.
func (e *Engine) solveSchema(an *analysis, ctx []int, deadline time.Time) (IndexRecord, error) {
	enc, err := e.newEncoding(an)
	if err != nil {
		return IndexRecord{}, err
	}
	enc.deadline = deadline
	unlocked := make(map[int]bool, len(ctx))

	if err := refAddSegment(enc, unlocked); err != nil {
		return IndexRecord{}, err
	}
	for _, gi := range ctx {
		// The guard becomes true at this boundary (its increments happened
		// in the preceding segments).
		if err := enc.assertGuardNow(an.guards[gi].c); err != nil {
			return IndexRecord{}, err
		}
		unlocked[gi] = true
		if err := refAddSegment(enc, unlocked); err != nil {
			return IndexRecord{}, err
		}
	}
	if err := enc.assertQueryConditions(); err != nil {
		return IndexRecord{}, err
	}
	st, ce, err := enc.solve()
	if err != nil {
		return IndexRecord{}, err
	}
	if ce != nil {
		for _, gi := range ctx {
			ce.Schema = append(ce.Schema, an.guards[gi].key)
		}
	}
	return IndexRecord{Done: true, Status: st, Slots: len(enc.slots), Stats: enc.solver.Stats, CE: ce}, nil
}

// freshSolveRange is SolveRange under the from-scratch strategy: sequential,
// stopping after the first Sat like the shipped loop.
func freshSolveRange(tb testing.TB, p *FullPlan, ctxs [][]int) []IndexRecord {
	tb.Helper()
	recs := make([]IndexRecord, len(ctxs))
	for i, ctx := range ctxs {
		rec, err := p.e.solveSchema(p.an, ctx, time.Time{})
		if err != nil {
			tb.Fatalf("fresh solve of context %d: %v", i, err)
		}
		recs[i] = rec
		if rec.Status == smt.Sat {
			break
		}
	}
	return recs
}

// checkFresh is a full-mode Check under the from-scratch strategy: the same
// plan, enumeration and fold, with freshSolveRange in the middle.
func checkFresh(t *testing.T, a *ta.TA, q spec.Query, maxSchemas int) Result {
	t.Helper()
	e, err := New(a, Options{Mode: FullEnumeration, MaxSchemas: maxSchemas})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanFull(&q)
	if err != nil {
		t.Fatal(err)
	}
	ctxs, exceeded, _ := plan.Enumerate()
	if exceeded {
		return cutoffResult(q.Name, e.opts.MaxSchemas)
	}
	res, err := FoldRecords(q.Name, freshSolveRange(t, plan, ctxs))
	if err != nil {
		t.Fatalf("fresh check %s: %v", q.Name, err)
	}
	return res
}
