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

// solveSchema encodes and solves the schema for one ordered guard context.
func (e *Engine) solveSchema(an *analysis, ctx []int, deadline time.Time) (IndexRecord, error) {
	enc, err := e.newEncoding(an)
	if err != nil {
		return IndexRecord{}, err
	}
	enc.deadline = deadline
	unlocked := make(map[int]bool, len(ctx))

	if err := enc.addSegment(unlocked); err != nil {
		return IndexRecord{}, err
	}
	for _, gi := range ctx {
		// The guard becomes true at this boundary (its increments happened
		// in the preceding segments).
		if err := enc.assertGuardNow(an.guards[gi].c); err != nil {
			return IndexRecord{}, err
		}
		unlocked[gi] = true
		if err := enc.addSegment(unlocked); err != nil {
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
