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
	qs, err := models.Named("naive").Queries(a)
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

// TestFullSolveWindowEffortPinned pins the process-wide solver effort of the
// full_solve benchmark workload's window at seed 1 — plan, enumerate and
// solve naive/Inv1_0 contexts [26801, 27401) at one worker — to the values
// recorded at commit f092816, before the dictionary's rows gained an int64
// lane. Bland's rule reads only signs and exact ratios, so a change to how
// cells are stored must leave every count here byte-identical.
func TestFullSolveWindowEffortPinned(t *testing.T) {
	const base, window = 26801, 600
	names := []string{"lp_checks", "pivots", "rebuilds", "bb_nodes", "case_splits", "lazy_clones"}
	global := func() (v [6]int64) {
		for i, n := range names {
			v[i] = obs.Default.Counter("smt", n).Load()
		}
		return v
	}
	before := global()
	plan := naivePlan(t, "Inv1_0")
	ctxs, _ := plan.EnumeratePrefix(base+window, nil)
	if len(ctxs) != base+window {
		t.Fatalf("prefix has %d contexts, want %d", len(ctxs), base+window)
	}
	recs, interrupted, err := plan.SolveRange(ctxs[base:], base, 1, nil)
	after := global()
	if err != nil || interrupted {
		t.Fatalf("SolveRange: interrupted=%v err=%v", interrupted, err)
	}
	for i := range recs {
		if !recs[i].Done {
			t.Fatalf("context %d not solved", base+i)
		}
	}
	want := [6]int64{221, 8177, 15, 14, 53, 206}
	for i := range after {
		after[i] -= before[i]
	}
	if after != want {
		t.Errorf("process-wide smt counters %v moved by %v, want %v", names, after, want)
	}
}
