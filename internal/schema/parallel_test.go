package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
)

// refEnumerate is an independent reference implementation of the ordered
// guard-context enumeration: plain recursive DFS over the alphabet with an
// explicit copy at every emit. The production walker (limit-bounded,
// cancellable) must produce exactly this list in exactly this order.
func refEnumerate(e *Engine, an *analysis, limit int) ([][]int, bool) {
	var out [][]int
	exceeded := false
	var rec func(ctx []int, unlocked map[int]bool)
	rec = func(ctx []int, unlocked map[int]bool) {
		if exceeded {
			return
		}
		if len(out) >= limit {
			exceeded = true
			return
		}
		out = append(out, append([]int(nil), ctx...))
		for _, gi := range an.alphabet {
			if unlocked[gi] || !refUnlockable(e, an, unlocked, gi) {
				continue
			}
			child := append(append([]int(nil), ctx...), gi)
			unlocked[gi] = true
			rec(child, unlocked)
			delete(unlocked, gi)
			if exceeded {
				return
			}
		}
	}
	rec(nil, map[int]bool{})
	return out, exceeded
}

func ctxKey(ctx []int) string { return fmt.Sprint(ctx) }

// sameContexts asserts got is exactly want: same contexts, same preorder, no
// duplicates.
func sameContexts(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d contexts, reference has %d", name, len(got), len(want))
	}
	seen := map[string]bool{}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: context %d = %v, reference %v", name, i, got[i], want[i])
		}
		k := ctxKey(got[i])
		if seen[k] {
			t.Fatalf("%s: duplicate context %v", name, got[i])
		}
		seen[k] = true
	}
}

// TestEnumerateContextsMatchesReference checks the materialized context list
// against the reference enumerator, through both entry points of the one
// walker: Enumerate (the MaxSchemas cutoff discards everything) and
// EnumeratePrefix (a limit keeps the prefix) at limits below, at and above
// the tree size. This is also the regression test for the context-aliasing
// bug: the old walk passed append(ctx, gi) down the recursion, so sibling
// branches could share (and clobber) a backing array; corrupt contexts show
// up here as order/content mismatches.
func TestEnumerateContextsMatchesReference(t *testing.T) {
	automata := []*ta.TA{models.BVBroadcast(), models.SimplifiedConsensus()}
	rng := rand.New(rand.NewSource(42))
	for seed := int64(0); len(automata) < 8 && seed < 50; seed++ {
		a, err := randomTA(rng, fmt.Sprintf("enum%d", seed))
		if err != nil {
			continue
		}
		automata = append(automata, a)
	}
	for _, a := range automata {
		q := spec.Query{Name: "visit", Kind: spec.Safety,
			VisitNonempty: []ta.LocSet{{ta.LocID(0): true}}}
		if err := q.Validate(a); err != nil {
			continue
		}
		e, err := New(a, Options{Mode: FullEnumeration})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.PlanFull(&q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantExceeded := refEnumerate(e, plan.an, e.opts.MaxSchemas)
		got, exceeded, _ := plan.Enumerate()
		if exceeded != wantExceeded {
			t.Fatalf("%s: exceeded=%v, reference says %v", a.Name, exceeded, wantExceeded)
		}
		limits := []int{0, 1, 1000}
		if !wantExceeded {
			sameContexts(t, a.Name, got, want)
			limits = []int{0, 1, len(want) - 1, len(want), len(want) + 1}
		}
		for _, limit := range limits {
			ref, refTruncated := refEnumerate(e, plan.an, limit)
			prefix, truncated := plan.EnumeratePrefix(limit, nil)
			name := fmt.Sprintf("%s prefix %d", a.Name, limit)
			if truncated != refTruncated {
				t.Fatalf("%s: truncated=%v, reference says %v", name, truncated, refTruncated)
			}
			sameContexts(t, name, prefix, ref)
		}
	}
}

func fullCheckAt(t *testing.T, a *ta.TA, q spec.Query, workers, maxSchemas int) Result {
	t.Helper()
	e, err := New(a, Options{Mode: FullEnumeration, Workers: workers, MaxSchemas: maxSchemas})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Check(&q)
	if err != nil {
		t.Fatalf("check %s at %d workers: %v", q.Name, workers, err)
	}
	return res
}

// sameResult asserts the two runs are observably identical: verdict, schema
// count, average length, solver effort, and (for violations) the
// counterexample's parameters and schema context.
func sameResult(t *testing.T, name string, workers int, base, got Result) {
	t.Helper()
	if got.Outcome != base.Outcome {
		t.Errorf("%s workers=%d: outcome %v, want %v", name, workers, got.Outcome, base.Outcome)
		return
	}
	if got.Schemas != base.Schemas {
		t.Errorf("%s workers=%d: %d schemas, want %d", name, workers, got.Schemas, base.Schemas)
	}
	if got.AvgLen != base.AvgLen {
		t.Errorf("%s workers=%d: avg len %v, want %v", name, workers, got.AvgLen, base.AvgLen)
	}
	if got.Solver != base.Solver {
		t.Errorf("%s workers=%d: solver stats %+v, want %+v", name, workers, got.Solver, base.Solver)
	}
	if (got.CE == nil) != (base.CE == nil) {
		t.Errorf("%s workers=%d: CE presence %v, want %v", name, workers, got.CE != nil, base.CE != nil)
		return
	}
	if got.CE != nil {
		if !reflect.DeepEqual(got.CE.Params, base.CE.Params) {
			t.Errorf("%s workers=%d: CE params %v, want %v", name, workers, got.CE.Params, base.CE.Params)
		}
		if !reflect.DeepEqual(got.CE.Schema, base.CE.Schema) {
			t.Errorf("%s workers=%d: CE schema %v, want %v", name, workers, got.CE.Schema, base.CE.Schema)
		}
	}
}

// TestParallelDeterminismBV runs every bv-broadcast property (all Holds —
// the full-prefix fold) at 1, 2 and 8 workers and requires byte-identical
// results.
func TestParallelDeterminismBV(t *testing.T) {
	a := models.BVBroadcast()
	qs, err := models.BVQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		base := fullCheckAt(t, a, q, 1, 0)
		for _, workers := range []int{2, 8} {
			sameResult(t, q.Name, workers, base, fullCheckAt(t, a, q, workers, 0))
		}
	}
}

// TestParallelDeterminismViolated exercises the early-cancellation path: a
// violated query must report the same (lexicographically-least) schema
// context and the same counterexample at any worker count.
func TestParallelDeterminismViolated(t *testing.T) {
	a := models.BVBroadcast()
	delivered, err := a.LocSetByName("C0", "CB0", "C01")
	if err != nil {
		t.Fatal(err)
	}
	q := spec.Query{
		Name:          "BV-Just0-no-premise",
		Kind:          spec.Safety,
		VisitNonempty: []ta.LocSet{delivered},
	}
	base := fullCheckAt(t, a, q, 1, 0)
	if base.Outcome != spec.Violated {
		t.Fatalf("outcome %v, want violated", base.Outcome)
	}
	if base.CE == nil || base.CE.Schema == nil {
		t.Fatalf("violated full-mode result must carry the schema context, got %+v", base.CE)
	}
	for _, workers := range []int{2, 8} {
		sameResult(t, q.Name, workers, base, fullCheckAt(t, a, q, workers, 0))
	}
}

// TestParallelDeterminismBudget checks the structural-cutoff path: the naive
// automaton exceeds a small schema budget with the same reported count at any
// worker count.
func TestParallelDeterminismBudget(t *testing.T) {
	a := models.NaiveConsensus()
	qs, err := models.NaiveQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	const limit = 1000
	base := fullCheckAt(t, a, q, 1, limit)
	if base.Outcome != spec.Budget {
		t.Fatalf("outcome %v, want budget", base.Outcome)
	}
	if base.Schemas != limit+1 {
		t.Fatalf("schemas = %d, want %d", base.Schemas, limit+1)
	}
	for _, workers := range []int{2, 8} {
		sameResult(t, q.Name, workers, base, fullCheckAt(t, a, q, workers, limit))
	}
}

// TestParallelDeterminismRandom cross-validates the parallel and sequential
// full enumeration on ~50 random automata with random visit queries.
func TestParallelDeterminismRandom(t *testing.T) {
	trials := 0
	for seed := int64(1000); trials < 50 && seed < 1300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := randomTA(rng, fmt.Sprintf("par%d", seed))
		if err != nil {
			continue
		}
		q := spec.Query{Name: "visit", Kind: spec.Safety}
		for k := 0; k <= rng.Intn(2); k++ {
			set := ta.LocSet{}
			for j := 0; j <= rng.Intn(2); j++ {
				set[ta.LocID(rng.Intn(len(a.Locations)))] = true
			}
			q.VisitNonempty = append(q.VisitNonempty, set)
		}
		if err := q.Validate(a); err != nil {
			continue
		}
		trials++
		base := fullCheckAt(t, a, q, 1, 0)
		for _, workers := range []int{2, 8} {
			sameResult(t, a.Name, workers, base, fullCheckAt(t, a, q, workers, 0))
		}
	}
	if trials < 30 {
		t.Fatalf("only %d valid random automata generated", trials)
	}
}

// TestParallelStop checks that a pre-fired Stop winds a full-mode check down
// with a Budget outcome at any worker count instead of hanging or solving.
func TestParallelStop(t *testing.T) {
	a := models.BVBroadcast()
	qs, err := models.BVQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e, err := New(a, Options{Mode: FullEnumeration, Workers: workers,
			Stop: func() bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Check(&qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != spec.Budget {
			t.Errorf("workers=%d: outcome %v, want budget under Stop", workers, res.Outcome)
		}
	}
}
