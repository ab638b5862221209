package smt

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// schemaShapedSystem builds the constraint rows of one long schema of a
// made-up threshold automaton, the shape the full-mode cursor hands this
// package: columns are the initial counters of locs locations and one
// acceleration factor per slot; slot k fires a rule that moves processes
// from one location to another, and its row says the source counter stays
// nonnegative after it — the initial counter plus every earlier factor into
// the location minus every one out of it. A few guard rows require the
// factors of an incrementing rule to reach a threshold (the only negative
// constants, so phase one has work to do). With 10 locations, 230 slots and
// 20 guards this is 250 rows over 240 columns, and the solved dictionary is
// 10 % non-zero — between the 5.6 % a naive/Inv1_0 tableau averages and the
// 14 % of its pivot rows (EXPERIMENTS.md).
func schemaShapedSystem(seed int64, locs, slots, guards int) []expr.Lin {
	rng := rand.New(rand.NewSource(seed))
	factor := func(k int) expr.Sym { return expr.Sym(locs + k) }
	from, to := make([]int, slots), make([]int, slots)
	var rows []expr.Lin
	for k := 0; k < slots; k++ {
		from[k] = rng.Intn(locs)
		to[k] = (from[k] + 1 + rng.Intn(locs-1)) % locs
		l := expr.Lin{Coeffs: map[expr.Sym]int64{expr.Sym(from[k]): 1}}
		for j := 0; j <= k; j++ {
			switch from[k] {
			case to[j]:
				l.Coeffs[factor(j)] = 1
			case from[j]:
				l.Coeffs[factor(j)] = -1
			}
		}
		rows = append(rows, l)
	}
	for g := 0; g < guards; g++ {
		rule := rng.Intn(locs)
		l := expr.Lin{Coeffs: map[expr.Sym]int64{}, Const: -int64(1 + rng.Intn(3))}
		for k := 0; k < slots*(g+1)/guards; k++ {
			if to[k] == rule {
				l.Coeffs[factor(k)] = 1
			}
		}
		rows = append(rows, l)
	}
	return rows
}

// benchTableau returns the solved 250 x 240 dictionary the kernel benchmarks
// work on, and logs its sparsity.
func benchTableau(b testing.TB) *tableau {
	b.Helper()
	t := newTableau(new(scratch))
	for _, l := range schemaShapedSystem(1, 10, 230, 20) {
		t.addGE(l)
	}
	feasible, pivots, err := t.solveFresh()
	if err != nil || !feasible {
		b.Fatalf("benchmark system: feasible=%v err=%v", feasible, err)
	}
	nnz := 0
	for i := range t.rows {
		nnz += len(t.rows[i].idx)
	}
	b.Logf("%d rows x %d columns after %d phase-one pivots, %.1f %% non-zero",
		len(t.rows), len(t.nonbasic), pivots, 100*float64(nnz)/float64(len(t.rows)*len(t.nonbasic)))
	return t
}

// typicalPivot picks the (column, row) whose pivot row length and number of
// rows with a non-zero in the column are closest to the full_solve averages
// (33 and 16).
func typicalPivot(t *tableau) (e int32, r int) {
	inCol := make([]int, len(t.nonbasic))
	for i := range t.rows {
		for _, c := range t.rows[i].idx {
			inCol[c]++
		}
	}
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	best := -1
	for i := range t.rows {
		for _, c := range t.rows[i].idx {
			if d := abs(len(t.rows[i].idx)-33) + abs(inCol[c]-16); best == -1 || d < best {
				best, e, r = d, c, i
			}
		}
	}
	return e, r
}

// BenchmarkPivot measures one pivot. Pivoting the same position again
// restores the previous dictionary exactly, so the loop alternates between
// two fixed states.
func BenchmarkPivot(b *testing.B) {
	t := benchTableau(b)
	e, r := typicalPivot(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.pivot(e, r)
	}
}

// guardRow is the kind of row a cursor step appends: the sum of a handful
// of factors reaching a threshold. It takes them from the variables that are
// basic in t, so addGE has their dictionary rows to substitute.
func guardRow(t *tableau) expr.Lin {
	symOf := map[int]expr.Sym{}
	for s, id := range t.varOf {
		if id >= 0 {
			symOf[int(id)] = expr.Sym(s)
		}
	}
	l := expr.Lin{Coeffs: map[expr.Sym]int64{}, Const: -2}
	for _, id := range t.basic {
		if s, ok := symOf[id]; ok && len(l.Coeffs) < 8 {
			l.Coeffs[s] = 1
		}
	}
	return l
}

// BenchmarkAddGE measures appending one row to the solved dictionary (the
// row is cut off again outside the timer's interest: truncation is a few
// slice headers).
func BenchmarkAddGE(b *testing.B) {
	t := benchTableau(b)
	l := guardRow(t)
	rows, vars := len(t.rows), t.nextVar
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.addGE(l)
		t.basic, t.consts, t.rows, t.own = t.basic[:rows], t.consts[:rows], t.rows[:rows], t.own[:rows]
		t.colAt, t.rowAt = t.colAt[:vars], t.rowAt[:vars]
		t.nextVar = vars
	}
}

var cloneSink *tableau

// BenchmarkTableauClone measures the copy a check pays the first time it
// mutates a basis that a Push saved.
func BenchmarkTableauClone(b *testing.B) {
	t := benchTableau(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = t.clone(0)
	}
}

// BenchmarkPushCheckPop measures one cursor step through the public API:
// Push, assert one more row, a warm-started CheckRational (lazy clone, addGE,
// dual restore) and Pop back to the shared basis.
func BenchmarkPushCheckPop(b *testing.B) {
	s := NewSolver(expr.NewTable())
	for _, l := range schemaShapedSystem(1, 10, 230, 20) {
		s.Assert(expr.GEZero(l))
	}
	if st, _, err := s.CheckRational(); err != nil || st != Sat {
		b.Fatalf("base system: %v %v", st, err)
	}
	step := expr.GEZero(guardRow(s.lp.tab))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push()
		s.Assert(step)
		if st, _, err := s.CheckRational(); err != nil || st != Sat {
			b.Fatalf("step: %v %v", st, err)
		}
		s.Pop()
	}
}

// caseSplitClauses hangs one side condition on every slot of the
// schema-shaped system: "this slot's factor is zero OR its source location
// keeps a process after the firing" — a disjunction of a factor bound and a
// counter row, the shape of the encoder's per-firing obligations. The
// relaxation drains locations exactly, so it keeps violating one of them,
// and each split moves the solution by a pivot or two.
func caseSplitClauses(rows []expr.Lin, locs, slots int) []Clause {
	var clauses []Clause
	for k, l := range rows[:slots] {
		keeps := l.Clone()
		keeps.Const--
		clauses = append(clauses, ClauseOf(
			expr.GEZero(expr.Lin{Coeffs: map[expr.Sym]int64{expr.Sym(locs + k): -1}}),
			expr.GEZero(keeps)))
	}
	return clauses
}

// BenchmarkCaseSplit measures one whole lazy case-splitting search below the
// solved 250 x 240 system — 43 nodes, 66 pivots, under spec_suite's 2.9 a node —
// and so the per-node toll: a Push, a literal asserted, a warm check on a
// clone of the parent basis, every clause evaluated at the solution, a Pop.
func BenchmarkCaseSplit(b *testing.B) {
	rows := schemaShapedSystem(1, 10, 230, 20)
	clauses := caseSplitClauses(rows, 10, 230)
	s := NewSolver(expr.NewTable())
	for _, l := range rows {
		s.Assert(expr.GEZero(l))
	}
	if st, _, err := s.CheckRational(); err != nil || st != Sat {
		b.Fatalf("base system: %v %v", st, err)
	}
	before := s.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push()
		st, _, err := s.CheckClauses(clauses, ClauseLimits{})
		s.Pop()
		if err != nil || st != Sat {
			b.Fatalf("case-split search: %v %v", st, err)
		}
	}
	work := s.Stats.Diff(before)
	b.ReportMetric(float64(work.CaseSplit)/float64(b.N), "splits/op")
	b.ReportMetric(float64(work.Pivots)/float64(b.N), "pivots/op")
}
