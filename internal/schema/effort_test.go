package schema

import (
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/spec"
)

// TestEffortCountersPinned solves a fixed 64-context window of the naive
// automaton's Inv1_0 preorder (the solver-bound region the full_solve
// benchmark workload samples) at one worker and pins the summed solver
// effort to the values recorded at commit 2d9fbf6, before the simplex kernel
// went sparse. Pivot order decides which relaxation vertex branch-and-bound
// sees, so a storage or arithmetic change that reorders pivots shows here as
// a different count rather than as a silent drift of the benchmark's exact
// counters.
func TestEffortCountersPinned(t *testing.T) {
	const base, window = 26864, 64
	a := models.NaiveConsensus()
	qs, err := models.NaiveQueries(a)
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
	e, err := New(a, Options{Mode: FullEnumeration})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanFull(q)
	if err != nil {
		t.Fatal(err)
	}
	ctxs, _ := plan.EnumeratePrefix(base+window, nil)
	if len(ctxs) != base+window {
		t.Fatalf("prefix has %d contexts, want %d", len(ctxs), base+window)
	}
	// The per-record Stats carry only the canonical-walk share of the work;
	// the process-wide counters also see the cursor's seek to the window
	// (rebuilds, branch-and-bound nodes). No test in this package runs in
	// parallel, so their deltas are exact too.
	names := []string{"lp_checks", "pivots", "rebuilds", "bb_nodes", "case_splits"}
	global := func() (v [5]int64) {
		for i, n := range names {
			v[i] = obs.Default.Counter("smt", n).Load()
		}
		return v
	}
	before := global()
	recs, interrupted, err := plan.SolveRange(ctxs[base:], base, 1, nil)
	after := global()
	if err != nil || interrupted {
		t.Fatalf("SolveRange: interrupted=%v err=%v", interrupted, err)
	}
	var got smt.Stats
	for i := range recs {
		if !recs[i].Done || recs[i].Status != smt.Unsat {
			t.Fatalf("context %d: done=%v status=%v, want a solved unsat", base+i, recs[i].Done, recs[i].Status)
		}
		got.Add(recs[i].Stats)
	}
	want := smt.Stats{LPChecks: 30, Pivots: 1466, Rebuilds: 0, BBNodes: 0, CaseSplit: 8}
	if got != want {
		t.Errorf("solver effort over contexts [%d,%d) = %+v, want %+v", base, base+window, got, want)
	}
	wantGlobal := [5]int64{42, 1644, 1, 0, 8}
	for i := range after {
		after[i] -= before[i]
	}
	if after != wantGlobal {
		t.Errorf("process-wide smt counters %v moved by %v, want %v", names, after, wantGlobal)
	}
}
