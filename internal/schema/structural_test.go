package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
)

// This file checks the structural table (analysis.go, segment) against the
// per-call loops it replaced (fresh_ref_test.go) and pins what the cursor's
// dead-subtree path derives from it: slot counts of records below an Unsat
// level, their allocation cost, and the exact size of the guard-context tree.

type modelQueries struct {
	a  *ta.TA
	qs []spec.Query
}

// bundledQueries returns every bundled automaton with its query set.
func bundledQueries(t testing.TB) []modelQueries {
	t.Helper()
	var out []modelQueries
	for _, m := range []struct {
		a  *ta.TA
		qs func(*ta.TA) ([]spec.Query, error)
	}{
		{models.BVBroadcast(), models.BVQueries},
		{models.SimplifiedConsensus(), models.SimplifiedQueries},
		{models.NaiveConsensus(), models.NaiveQueries},
		{models.SBA(), models.SBAQueries},
		{models.STReliableBroadcast(), models.STRBQueries},
		{models.Bosco(), models.BoscoQueries},
	} {
		qs, err := m.qs(m.a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, modelQueries{m.a, qs})
	}
	return out
}

// randomVisitQueries generates want random rising-guard automata, each with
// one random visit query (the generator of TestIncrementalVsFreshSchemaRandom).
func randomVisitQueries(want int) []modelQueries {
	var out []modelQueries
	for seed := int64(2000); len(out) < want && seed < 2300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := randomTA(rng, fmt.Sprintf("inc%d", seed))
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
		if q.Validate(a) != nil {
			continue
		}
		out = append(out, modelQueries{a, []spec.Query{q}})
	}
	return out
}

func planOf(t testing.TB, a *ta.TA, q *spec.Query) *FullPlan {
	t.Helper()
	e, err := New(a, Options{Mode: FullEnumeration})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanFull(q)
	if err != nil {
		t.Fatalf("%s/%s: %v", a.Name, q.Name, err)
	}
	return plan
}

func naivePlan(t testing.TB, name string) *FullPlan {
	t.Helper()
	a := models.NaiveConsensus()
	qs, err := models.NaiveQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if qs[i].Name == name {
			return planOf(t, a, &qs[i])
		}
	}
	t.Fatalf("no %s query", name)
	return nil
}

// treeSize is the exact number of contexts in the plan's guard-context tree,
// by dynamic programming over the structural table: the subtree below a
// context depends only on its unlocked set, so size(S) = 1 + Σ size(S ∪ {g})
// over the guards unlockable from S. visit, when non-nil, sees every distinct
// set once. It returns the tree size and the number of distinct sets.
func treeSize(p *FullPlan, visit func(unlocked guardSet, sg *segment)) (size uint64, sets int) {
	memo := make(map[string]uint64)
	unlocked := p.an.newGuardSet()
	var rec func() uint64
	rec = func() uint64 {
		if n, ok := memo[string(unlocked)]; ok {
			return n
		}
		sg := p.e.segment(p.an, unlocked)
		if visit != nil {
			visit(unlocked, sg)
		}
		n := uint64(1)
		for _, gi := range sg.next {
			unlocked.add(gi)
			n += rec()
			unlocked.remove(gi)
		}
		memo[string(unlocked)] = n
		return n
	}
	return rec(), len(memo)
}

// TestIncrementalStructuralTable: over every bundled model/query and the
// random automata, for every unlocked set the walk reaches, the table's rule
// list is exactly what the retired per-call addSegment loop encodes (same
// rules, same order, hence the same slot delta) and its unlockable list is
// exactly what the retired per-call unlockable loop admits.
func TestIncrementalStructuralTable(t *testing.T) {
	random := 50
	if testing.Short() {
		random = 12
	}
	all := append(bundledQueries(t), randomVisitQueries(random)...)
	if len(all) < 6+random*3/5 {
		t.Fatalf("only %d automata", len(all))
	}
	for _, m := range all {
		for i := range m.qs {
			plan := planOf(t, m.a, &m.qs[i])
			e, an := plan.e, plan.an
			enc, err := e.newEncoding(an)
			if err != nil {
				t.Fatal(err)
			}
			name := m.a.Name + "/" + m.qs[i].Name
			treeSize(plan, func(unlocked guardSet, sg *segment) {
				ref := make(map[int]bool)
				for gi := range an.guards {
					if unlocked.has(gi) {
						ref[gi] = true
					}
				}
				enc.push()
				if err := refAddSegment(enc, ref); err != nil {
					t.Fatal(err)
				}
				var rules []int
				for _, sl := range enc.slots {
					rules = append(rules, sl.ruleIdx)
				}
				enc.pop()
				if !reflect.DeepEqual(rules, sg.rules) {
					t.Fatalf("%s set %v: table fires rules %v, reference encoder %v", name, ref, sg.rules, rules)
				}
				var next []int
				for _, gi := range an.alphabet {
					if !ref[gi] && refUnlockable(e, an, ref, gi) {
						next = append(next, gi)
					}
				}
				if !reflect.DeepEqual(next, sg.next) {
					t.Fatalf("%s set %v: table unlocks %v next, reference %v", name, ref, sg.next, next)
				}
			})
		}
	}
}

// TestIncrementalTreeSizeDP is the reproduction ROADMAP item 1 asks for: the
// DP over the structural table counts the guard-context tree exactly. It
// must equal the materialised preorder wherever that fits under MaxSchemas,
// and the naive automaton's tree has 9,653,899,189 contexts over 4,624
// distinct unlocked sets for each of its three queries.
func TestIncrementalTreeSizeDP(t *testing.T) {
	random := 50
	if testing.Short() {
		random = 12
	}
	materialised := 0
	for _, m := range append(bundledQueries(t), randomVisitQueries(random)...) {
		for i := range m.qs {
			plan := planOf(t, m.a, &m.qs[i])
			size, sets := treeSize(plan, nil)
			if n := len(plan.an.segs); n != sets {
				t.Errorf("%s/%s: table holds %d entries for %d distinct sets", m.a.Name, m.qs[i].Name, n, sets)
			}
			ctxs, exceeded, _ := plan.Enumerate()
			if exceeded {
				if size <= uint64(plan.MaxSchemas()) {
					t.Errorf("%s/%s: DP counts %d contexts but enumeration exceeds %d", m.a.Name, m.qs[i].Name, size, plan.MaxSchemas())
				}
				continue
			}
			materialised++
			if size != uint64(len(ctxs)) {
				t.Errorf("%s/%s: DP counts %d contexts over %d sets, enumeration materialises %d", m.a.Name, m.qs[i].Name, size, sets, len(ctxs))
			}
		}
	}
	if materialised < 20 {
		t.Errorf("only %d trees were small enough to materialise", materialised)
	}
	for _, name := range []string{"Inv1_0", "Inv2_0", "SRoundTerm"} {
		size, sets := treeSize(naivePlan(t, name), nil)
		if size != 9_653_899_189 || sets != 4_624 {
			t.Errorf("naive/%s: %d contexts over %d sets, want 9653899189 over 4624", name, size, sets)
		}
	}
}

// sameRecord asserts the strategy-independent fields of two records agree
// (Stats is a per-strategy accounting, compared separately where it applies).
func sameRecord(t *testing.T, name string, i int, got, want IndexRecord) {
	t.Helper()
	if got.Done != want.Done || got.Status != want.Status || got.Slots != want.Slots || (got.CE == nil) != (want.CE == nil) {
		t.Errorf("%s record %d: done=%v status=%v slots=%d ce=%v, want done=%v status=%v slots=%d ce=%v",
			name, i, got.Done, got.Status, got.Slots, got.CE != nil, want.Done, want.Status, want.Slots, want.CE != nil)
	}
}

// deadStarts returns up to n well-spread indices whose context sits strictly
// below an Unsat level: the record before it is already a zero-stats Unsat
// and the context extends its predecessor, so a range starting there replays
// into the dead subtree before it solves anything.
func deadStarts(ctxs [][]int, recs []IndexRecord, n int) []int {
	var all []int
	for i := 2; i < len(recs); i++ {
		dead := func(r IndexRecord) bool { return r.Status == smt.Unsat && r.Stats == (smt.Stats{}) }
		if dead(recs[i-1]) && dead(recs[i]) && len(ctxs[i]) > len(ctxs[i-1]) {
			all = append(all, i)
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]int, n)
	for k := range out {
		out[k] = all[k*len(all)/n]
	}
	return out
}

// TestIncrementalVsFreshPruneRecords is the prune-bound counterpart of
// TestIncrementalVsFreshPrefixRecords: on the naive automaton's Inv2_0 prefix
// almost every context lies below a rationally-Unsat level, where the cursor
// counts slots from the structural table instead of encoding. Every record's
// status and slot count must equal the from-scratch encoder's, at any worker
// count, and ranges that start inside a dead subtree must reproduce the
// canonical walk's records field for field.
func TestIncrementalVsFreshPruneRecords(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 600
	}
	plan := naivePlan(t, "Inv2_0")
	ctxs, truncated := plan.EnumeratePrefix(n, nil)
	if len(ctxs) != n || !truncated {
		t.Fatalf("prefix has %d contexts (truncated=%v), want %d of a larger tree", len(ctxs), truncated, n)
	}
	solve := func(lo, hi, workers int) []IndexRecord {
		// A fresh plan per solve: nothing memoised by an earlier walk.
		recs, interrupted, err := naivePlan(t, "Inv2_0").SolveRange(ctxs[lo:hi], lo, workers, nil)
		if err != nil || interrupted {
			t.Fatalf("SolveRange [%d,%d) workers=%d: interrupted=%v err=%v", lo, hi, workers, interrupted, err)
		}
		return recs
	}
	fresh := freshSolveRange(t, plan, ctxs)
	canon := solve(0, n, 1)
	dead := 0
	for i := range canon {
		sameRecord(t, "workers=1", i, canon[i], fresh[i])
		if canon[i].Status == smt.Unsat && canon[i].Stats == (smt.Stats{}) {
			dead++
		}
	}
	if dead < n/2 {
		t.Fatalf("only %d of %d records are structurally settled — not the prune-bound regime", dead, n)
	}
	for _, workers := range []int{2, 5} {
		if got := solve(0, n, workers); !reflect.DeepEqual(got, canon) {
			for i := range got {
				if !reflect.DeepEqual(got[i], canon[i]) {
					t.Fatalf("workers=%d record %d = %+v, canonical walk %+v", workers, i, got[i], canon[i])
				}
			}
		}
	}
	starts := deadStarts(ctxs, canon, 6)
	if len(starts) < 3 {
		t.Fatalf("found only %d range starts inside a dead subtree", len(starts))
	}
	for k, lo := range starts {
		hi := min(lo+150, n)
		got := solve(lo, hi, []int{1, 2, 5}[k%3])
		for i := range got {
			if !reflect.DeepEqual(got[i], canon[lo+i]) {
				t.Errorf("range [%d,%d) record %d = %+v, canonical walk %+v", lo, hi, lo+i, got[i], canon[lo+i])
			}
		}
	}
}

// TestDeadSubtreeAllocs is the allocation gate of the dead-subtree path: once
// the cursor sits below an Unsat level and the table knows the sets ahead,
// moving to the next dead context and returning its record allocates nothing
// (the path and slot-total slices are at capacity, the table lookup converts
// its key in place, no trace map is built) and performs no LP check.
func TestDeadSubtreeAllocs(t *testing.T) {
	const prefix, maxAllocs = 10000, 0
	plan := naivePlan(t, "Inv2_0")
	ctxs, _ := plan.EnumeratePrefix(prefix, nil)
	cur, err := plan.e.newFullCursor(plan.an, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var acc phaseAcc
	// Walk until the cursor has just entered a dead subtree, then find how
	// far the preorder stays inside it.
	lo := 0
	for ; lo < len(ctxs) && len(cur.deadSlots) == 0; lo++ {
		if _, err := cur.solveAt(ctxs[lo], lo, &acc); err != nil {
			t.Fatal(err)
		}
	}
	root := ctxs[lo-1][:cur.live]
	hi := lo
	for hi < len(ctxs) && commonPrefixLen(ctxs[hi], root) == len(root) {
		hi++
	}
	if hi-lo < 500 {
		t.Fatalf("dead subtree spans only contexts [%d,%d)", lo, hi)
	}
	walk := func(i int) {
		rec, err := cur.solveAt(ctxs[i], i, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Done || rec.Status != smt.Unsat || rec.Stats != (smt.Stats{}) {
			t.Fatalf("context %d: record %+v is not a structurally settled Unsat", i, rec)
		}
	}
	for i := lo; i < hi; i++ {
		walk(i) // warms the table and the slices' capacity
	}
	walk(lo - 1)
	checks := cur.enc.solver.Stats.LPChecks
	i := lo - 1
	got := testing.AllocsPerRun(hi-lo-1, func() {
		i++
		walk(i)
	})
	if got > maxAllocs {
		t.Errorf("a dead context allocates %v times, want at most %d", got, maxAllocs)
	}
	if i != hi-1 {
		t.Errorf("measured %d contexts, want %d", i-lo+1, hi-lo)
	}
	if d := cur.enc.solver.Stats.LPChecks - checks; d != 0 {
		t.Errorf("%d LP checks while walking a dead subtree, want 0", d)
	}
}
