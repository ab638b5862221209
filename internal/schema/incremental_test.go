package schema

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
)

// checkStrategy runs one full-mode check with the solve strategy pinned:
// the from-scratch reference (fresh_ref_test.go) or the shipped incremental
// walker at the given worker count.
func checkStrategy(t *testing.T, a *ta.TA, q spec.Query, workers, maxSchemas int, fresh bool) Result {
	t.Helper()
	if fresh {
		return checkFresh(t, a, q, maxSchemas)
	}
	return fullCheckAt(t, a, q, workers, maxSchemas)
}

// sameVerdict asserts two results agree on every strategy-independent field:
// outcome, schema count, average length and counterexample. Solver stats are
// deliberately excluded — the incremental walker's canonical-walk attribution
// is a different (internally deterministic) accounting than the fresh
// per-schema one.
func sameVerdict(t *testing.T, name string, base, got Result) {
	t.Helper()
	if got.Outcome != base.Outcome {
		t.Errorf("%s: outcome %v, want %v", name, got.Outcome, base.Outcome)
		return
	}
	if got.Schemas != base.Schemas {
		t.Errorf("%s: %d schemas, want %d", name, got.Schemas, base.Schemas)
	}
	if got.AvgLen != base.AvgLen {
		t.Errorf("%s: avg len %v, want %v", name, got.AvgLen, base.AvgLen)
	}
	if (got.CE == nil) != (base.CE == nil) {
		t.Errorf("%s: CE presence %v, want %v", name, got.CE != nil, base.CE != nil)
		return
	}
	if got.CE != nil {
		if !reflect.DeepEqual(got.CE.Params, base.CE.Params) {
			t.Errorf("%s: CE params %v, want %v", name, got.CE.Params, base.CE.Params)
		}
		if !reflect.DeepEqual(got.CE.Schema, base.CE.Schema) {
			t.Errorf("%s: CE schema %v, want %v", name, got.CE.Schema, base.CE.Schema)
		}
	}
}

// TestIncrementalVsFreshSchemaBV cross-validates the incremental
// prefix-sharing walker against from-scratch per-schema solves on every
// bundled bv-broadcast property, plus the violated no-premise variant (the
// counterexample-selection path). The strategies must be observationally
// indistinguishable at any worker count.
func TestIncrementalVsFreshSchemaBV(t *testing.T) {
	a := models.BVBroadcast()
	qs, err := models.BVQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	delivered, err := a.LocSetByName("C0", "CB0", "C01")
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs, spec.Query{
		Name:          "BV-Just0-no-premise",
		Kind:          spec.Safety,
		VisitNonempty: []ta.LocSet{delivered},
	})
	for _, q := range qs {
		base := checkStrategy(t, a, q, 1, 0, true)
		for _, workers := range []int{1, 2, 8} {
			got := checkStrategy(t, a, q, workers, 0, false)
			sameVerdict(t, fmt.Sprintf("%s workers=%d", q.Name, workers), base, got)
		}
	}
}

// TestIncrementalVsFreshSchemaRandom repeats the strategy cross-validation
// on ~50 random rising-guard automata with random visit queries.
func TestIncrementalVsFreshSchemaRandom(t *testing.T) {
	want, floor := 50, 30
	if testing.Short() {
		want, floor = 12, 8
	}
	all := randomVisitQueries(want)
	for _, m := range all {
		base := checkStrategy(t, m.a, m.qs[0], 1, 0, true)
		sameVerdict(t, m.a.Name, base, checkStrategy(t, m.a, m.qs[0], 1, 0, false))
	}
	if len(all) < floor {
		t.Fatalf("only %d valid random automata generated", len(all))
	}
}

// TestIncrementalVsFreshPrefixRecords compares the two strategies at the
// per-index record level on the cluster workload: a deep preorder prefix of
// the simplified consensus Inv1 tree, solved via SolveRange. Status, slot
// count and counterexample of every record must match; only the Stats
// accounting may differ between strategies.
func TestIncrementalVsFreshPrefixRecords(t *testing.T) {
	a := models.SimplifiedConsensus()
	qs, err := models.SimplifiedQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	var q *spec.Query
	for i := range qs {
		if qs[i].Name == "Inv1_0" {
			q = &qs[i]
		}
	}
	if q == nil {
		t.Fatal("no Inv1_0 query")
	}

	solve := func(fresh bool, workers int) []IndexRecord {
		e, err := New(a, Options{Mode: FullEnumeration})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.PlanFull(q)
		if err != nil {
			t.Fatal(err)
		}
		ctxs, _ := plan.EnumeratePrefix(150, nil)
		if fresh {
			return freshSolveRange(t, plan, ctxs)
		}
		recs, interrupted, err := plan.SolveRange(ctxs, 0, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if interrupted {
			t.Fatal("interrupted")
		}
		return recs
	}

	base := solve(true, 1)
	for _, workers := range []int{1, 4} {
		got := solve(false, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i].Done != base[i].Done || got[i].Status != base[i].Status || got[i].Slots != base[i].Slots {
				t.Errorf("workers=%d record %d: done=%v status=%v slots=%d, want done=%v status=%v slots=%d",
					workers, i, got[i].Done, got[i].Status, got[i].Slots,
					base[i].Done, base[i].Status, base[i].Slots)
			}
			if (got[i].CE == nil) != (base[i].CE == nil) {
				t.Errorf("workers=%d record %d: CE presence %v, want %v",
					workers, i, got[i].CE != nil, base[i].CE != nil)
			}
		}
	}
}

// jeroslowGuard builds the classic branch-and-bound worst case as a guard
// over n fresh non-shared symbols: 2*(x1+...+xn) = n with each xi in [0,1].
// Integer-infeasible for odd n (the left side is even), but every rational
// vertex is half-integral, so the search must branch its way through an
// exponential tree to prove it — node-hungry AND slow, the shape that used
// to ride straight through Stop and the deadline.
func jeroslowGuard(t *testing.T, tab *expr.Table, n int) (expr.Constraint, []expr.Constraint) {
	t.Helper()
	l := expr.NewLin(int64(-n))
	var bounds []expr.Constraint
	for i := 0; i < n; i++ {
		s := tab.Intern(fmt.Sprintf("jeroslow%d", i))
		if err := l.AddTerm(s, 2); err != nil {
			t.Fatal(err)
		}
		b, err := expr.Le(expr.Var(s), expr.NewLin(1))
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, b)
	}
	return expr.Constraint{L: l, Op: expr.EQ}, bounds
}

// TestGuardInitiallyTrueHonorsLimits is the regression for the analysis-phase
// deadline bypass: guardInitiallyTrue used to call the raw CheckInteger,
// which ignores both the check deadline and the engine's Stop hook, so a
// guard with a slow branch-and-bound search kept the analysis running
// through SIGINT and -timeout. The routed version winds down and answers
// with the conservative "possibly true".
func TestGuardInitiallyTrueHonorsLimits(t *testing.T) {
	a := models.BVBroadcast()

	// Unlimited, on an instance small enough to decide: definitively false.
	e, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, bounds := jeroslowGuard(t, a.Table, 11)
	it, err := e.guardInitiallyTrue(g, bounds, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if it {
		t.Fatal("odd Jeroslow instance is integer-infeasible, want initially-true = false")
	}

	// An already-expired deadline must abort the search before it decides,
	// yielding the conservative true — promptly, not after the node budget.
	start := time.Now()
	it, err = e.guardInitiallyTrue(g, bounds, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !it {
		t.Error("expired deadline: want conservative initially-true = true")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("expired deadline honored only after %v", d)
	}

	// A pre-fired Stop hook aborts the same way.
	es, err := New(a, Options{Stop: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	it, err = es.guardInitiallyTrue(g, bounds, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !it {
		t.Error("pre-fired Stop: want conservative initially-true = true")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-fired Stop honored only after %v", d)
	}
}
