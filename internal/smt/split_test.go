package smt

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/expr"
)

// toDense lays a production tableau out densely, so diffTableaus can compare
// two production tableaus cell for cell.
func toDense(t *tableau) *denseTableau {
	d := &denseTableau{
		colOf:    map[expr.Sym]int{},
		nextVar:  t.nextVar,
		nonbasic: t.nonbasic,
		basic:    t.basic,
		consts:   t.consts,
		objA:     t.objA,
		objC:     t.objC,
		x0:       t.x0,
	}
	for i := range t.rows {
		full := make([]rat, len(t.nonbasic))
		for k, c := range t.rows[i].idx {
			full[c] = t.rows[i].cell(k)
		}
		d.coef = append(d.coef, full)
	}
	return d
}

// sameTableau describes the first difference between got and want ("" when
// got is cell for cell, lane for lane, id for id and symbol for symbol what
// want is).
func sameTableau(want, got *tableau) string {
	var big bool
	if diff := diffTableaus(toDense(want), got, &big); diff != "" {
		return diff
	}
	for i := range want.rows {
		if w, g := &want.rows[i], &got.rows[i]; (w.val == nil) != (g.val == nil) || w.sig != g.sig {
			return fmt.Sprintf("row %d: lane on num %v, sig %#x; want on num %v, sig %#x", i, g.val == nil, g.sig, w.val == nil, w.sig)
		}
	}
	if !slices.Equal(want.varOf, got.varOf) {
		return fmt.Sprintf("symbol index: want %v, got %v", want.varOf, got.varOf)
	}
	if !slices.Equal(want.colAt, got.colAt) || !slices.Equal(want.rowAt, got.rowAt) {
		return "colAt/rowAt differ"
	}
	return ""
}

func hasBigCell(t *tableau) bool {
	for i := range t.rows {
		if t.consts[i].b != nil {
			return true
		}
		for _, v := range t.rows[i].val {
			if v.b != nil {
				return true
			}
		}
	}
	return false
}

// frozen is a tableau with the deep copy taken of it at some moment.
type frozen struct {
	name      string
	live, ref *tableau
}

// scopeWalk grows a tree of scopes over one tableau the way the search does
// (see node), tallying what the generated scopes covered.
type scopeWalk struct {
	t    *testing.T
	g    *sysGen
	seed int64
	path []expr.Lin // every row added on the way to the current node
	big  bool       // path holds a bigRow or an edgeRow (one is enough)

	nodes, siblings, infeasible, rebuilds, saved, rowsSeen int
	savesByLane                                            struct{ num, val int }
	sawBig, sawNewSym                                      bool
}

// node opens a scope on cur, drives it through one round — a few appended
// rows and a dual restore, sometimes after a pivot on a row older than the
// scope, with a bigRow that promotes cells, an edgeRow whose merges overflow
// at 2^62·2, a row over a symbol no scope has seen, or a row no point
// satisfies — then walks up to three children (siblings each see the state
// the round left, and a child may instead be a tableau rebuilt from the path
// sharing the trail, as Solver.check's fallback makes one; below a big row
// only one plain child), and closes the scope. Every row keeps its storage rules after every write, and undo must
// hand back exactly the deep copy taken when the scope opened.
func (w *scopeWalk) node(cur *tableau, name string, depth int) {
	t, g := w.t, w.g
	t.Helper()
	ref := cur.deepClone()
	if !cur.mark() {
		t.Fatalf("seed %d, %s: a solved tableau refused a mark", w.seed, name)
	}
	saves := len(cur.trail.saves)
	path := len(w.path)
	w.nodes++
	write := func(what string, f func()) {
		t.Helper()
		f()
		for i := range cur.rows {
			if diff := rowInvariants(&cur.rows[i]); diff != "" {
				t.Fatalf("seed %d, %s %s: row %d: %s", w.seed, name, what, i, diff)
			}
		}
	}
	rows := g.batch(1 + g.rng.Intn(3))
	switch g.rng.Intn(7) {
	case 1:
		// A pivot on a row the scope has not written yet. dualRestore never
		// makes one (a row's constant only turns negative in a pivot that
		// rewrote the row), so make it by hand.
		if r := g.rng.Intn(len(cur.rows)); len(cur.rows[r].idx) > 0 {
			e := cur.rows[r].idx[g.rng.Intn(len(cur.rows[r].idx))]
			write("pivot on an old row", func() { cur.pivot(e, r) })
		}
	case 2, 3:
		// Each such row multiplies cell magnitudes by another 2^59 or so;
		// a second one on a path only slows the walk down.
		if !w.big {
			w.big = true
			defer func() { w.big = false }()
			if g.rng.Intn(2) == 0 {
				rows = append(rows, g.bigRow())
			} else {
				rows = append(rows, g.edgeRow())
			}
		}
	case 4:
		fresh := expr.Sym(g.nvars + w.nodes%8)
		w.sawNewSym = w.sawNewSym || cur.idOf(fresh) < 0
		rows = append(rows, lin(map[expr.Sym]int64{fresh: 1, expr.Sym(g.rng.Intn(g.nvars)): -1}, -1))
	case 6:
		rows = append(rows, lin(map[expr.Sym]int64{expr.Sym(g.rng.Intn(g.nvars)): -1}, -1))
	}
	for k, l := range rows {
		write(fmt.Sprintf("addGE %d", k), func() { cur.addGE(l) })
	}
	w.path = append(w.path, rows...)
	var feasible bool
	var err error
	write("dualRestore", func() { feasible, _, err = cur.dualRestore() })
	if err != nil {
		t.Fatalf("seed %d, %s: %v", w.seed, name, err)
	}
	w.sawBig = w.sawBig || hasBigCell(cur)
	w.rowsSeen += len(ref.rows)
	for _, sv := range cur.trail.saves[saves:] {
		w.saved++
		if sv.onVal {
			w.savesByLane.val++
		} else {
			w.savesByLane.num++
		}
	}
	if !feasible {
		w.infeasible++ // the search pops an infeasible node at once
	} else if depth < 3 {
		after := cur.deepClone()
		children := 1 + g.rng.Intn(3)
		if w.big {
			children = 1 // pivots through big cells are slow: keep that subtree thin
		}
		if children > 1 {
			w.siblings++
		}
		for k := 0; k < children; k++ {
			child := fmt.Sprintf("%s.%d", name, k)
			if g.rng.Intn(6) == 0 && !w.big {
				w.rebuild(cur, child, depth+1)
			} else {
				w.node(cur, child, depth+1)
			}
			if diff := sameTableau(after, cur); diff != "" {
				t.Fatalf("seed %d, %s: child %d's scope left the tableau changed: %s", w.seed, name, k, diff)
			}
		}
	}
	cur.undo()
	w.path = w.path[:path]
	if diff := sameTableau(ref, cur); diff != "" {
		t.Fatalf("seed %d, %s: undo left the tableau changed: %s", w.seed, name, diff)
	}
}

// rebuild solves the path's rows from scratch in a tableau sharing cur's
// scratch and trail — cur's own scope stays open meanwhile — and walks a
// scope on it; cur must not notice.
func (w *scopeWalk) rebuild(cur *tableau, name string, depth int) {
	fresh := newTableau(cur.scratch)
	for _, l := range w.path {
		fresh.addGE(l)
	}
	ok, _, err := fresh.solveFresh()
	if err != nil {
		w.t.Fatalf("seed %d, %s rebuild: %v", w.seed, name, err)
	}
	w.rebuilds++
	if ok {
		w.node(fresh, name+" (rebuilt)", depth)
	}
}

// TestCloneSourceIntact walks trees of scopes over seeded schema-sized
// systems (scopeWalk.node): siblings, pivots on rows older than the scope,
// promoted cells, new symbols, infeasible endings and tableaus rebuilt
// inside a scope. Undo must restore each scope's opening state exactly, and
// the trail must save some rows — on both lanes — but not all of them.
func TestCloneSourceIntact(t *testing.T) {
	var total scopeWalk
	for seed := int64(1); seed <= 24; seed++ {
		g := newSysGen(seed, 10+int(seed%4)*5)
		root := newTableau(new(scratch))
		first := g.batch(g.nvars + 10)
		for _, l := range first {
			root.addGE(l)
		}
		if ok, _, err := root.solveFresh(); err != nil || !ok {
			continue
		}
		w := &scopeWalk{t: t, g: g, seed: seed, path: first}
		for k := 0; k < 3; k++ {
			w.node(root, fmt.Sprintf("root.%d", k), 0)
		}
		if len(root.marks) != 0 || len(root.trail.saves) != 0 || len(root.trail.pivots) != 0 || len(root.trail.idx) != 0 {
			t.Fatalf("seed %d: closed scopes left %d marks and trail entries %d/%d/%d", seed, len(root.marks), len(root.trail.saves), len(root.trail.pivots), len(root.trail.idx))
		}
		total.nodes += w.nodes
		total.siblings += w.siblings
		total.infeasible += w.infeasible
		total.rebuilds += w.rebuilds
		total.saved += w.saved
		total.rowsSeen += w.rowsSeen
		total.savesByLane.num += w.savesByLane.num
		total.savesByLane.val += w.savesByLane.val
		total.sawBig = total.sawBig || w.sawBig
		total.sawNewSym = total.sawNewSym || w.sawNewSym
	}
	t.Logf("%d scopes (%d with siblings, %d rebuilt): saved %d of %d rows (by lane %+v), %d infeasible endings, big.Rat cells: %v, new symbols: %v",
		total.nodes, total.siblings, total.rebuilds, total.saved, total.rowsSeen, total.savesByLane, total.infeasible, total.sawBig, total.sawNewSym)
	if total.savesByLane.num == 0 || total.savesByLane.val == 0 {
		t.Errorf("rows saved by lane %+v: want some on num and some on val", total.savesByLane)
	}
	if !total.sawBig || !total.sawNewSym || total.infeasible == 0 || total.siblings == 0 || total.rebuilds == 0 {
		t.Error("the generated scopes missed a promoted cell, a new symbol, an infeasible ending, siblings or a rebuild")
	}
	if total.saved == 0 || total.saved >= total.rowsSeen {
		t.Errorf("scopes saved %d of %d rows: want some, not all", total.saved, total.rowsSeen)
	}
}

// TestClonePopRestoresSnapshot walks a solver through seeded
// Assert/Push/Check/Pop steps over schema-sized rows and checks the scope
// discipline from outside: at every Pop the tableau is the one the matching
// Push saved and equals the deep copy taken at that Push — whatever the
// checks inside did, Unsat endings and branch-and-bound's own scopes
// included — and after every step the current tableau's rows keep their
// storage rules.
func TestClonePopRestoresSnapshot(t *testing.T) {
	checks, undone, clones := 0, 0, obsLazyClones.Load()
	for seed := int64(1); seed <= 12; seed++ {
		g := newSysGen(seed, 12+int(seed%3)*6)
		s := NewSolver(expr.NewTable())
		for _, l := range g.batch(g.nvars + 8) {
			s.Assert(expr.GEZero(l))
		}
		var saved []frozen // parallel to s.lpStack; a nil live where no basis was held
		for step := 0; step < 80; step++ {
			what := fmt.Sprintf("step %d", step)
			switch op := g.rng.Intn(10); {
			case op < 3:
				l := g.row()
				if g.rng.Intn(12) == 0 {
					l = g.bigRow()
				}
				s.Assert(expr.GEZero(l))
			case op < 5:
				f := frozen{live: s.lp.tab}
				if f.live != nil {
					f.ref = f.live.deepClone()
				}
				s.Push()
				saved = append(saved, f)
			case op < 7:
				if len(saved) == 0 {
					continue
				}
				f := saved[len(saved)-1]
				saved = saved[:len(saved)-1]
				if f.live != nil && sameTableau(f.ref, f.live) != "" {
					undone++ // the scope wrote the basis: Pop has work to do
				}
				s.Pop()
				if s.lp.tab != f.live || !s.lp.saved {
					t.Fatalf("seed %d, %s: Pop restored tableau %p saved=%v, want the Push's %p as saved", seed, what, s.lp.tab, s.lp.saved, f.live)
				}
				if f.live != nil {
					if diff := sameTableau(f.ref, f.live); diff != "" {
						t.Fatalf("seed %d, %s: Pop left the basis its Push saved changed: %s", seed, what, diff)
					}
				}
			case op < 9:
				if _, err := s.check(); err != nil {
					t.Fatalf("seed %d, %s: %v", seed, what, err)
				}
				checks++
			default:
				// Branch-and-bound pushes and pops scopes of its own.
				if _, _, err := s.CheckInteger(40); err != nil {
					t.Fatalf("seed %d, %s: %v", seed, what, err)
				}
				checks++
			}
			if len(saved) != len(s.lpStack) {
				t.Fatalf("seed %d, %s: %d saved bases for %d scopes", seed, what, len(saved), len(s.lpStack))
			}
			if cur := s.lp.tab; cur != nil {
				for i := range cur.rows {
					if diff := rowInvariants(&cur.rows[i]); diff != "" {
						t.Fatalf("seed %d, %s: row %d: %s", seed, what, i, diff)
					}
				}
			}
		}
	}
	if clones = obsLazyClones.Load() - clones; clones == 0 || undone == 0 {
		t.Errorf("%d first writes to a saved basis, %d Pops with a scope to undo: want some of each", clones, undone)
	}
	t.Logf("%d checks, %d first writes to a saved basis, %d Pops that undid writes", checks, clones, undone)
}

// TestCaseSplitBasisReaders holds the readers the search now uses — literal
// evaluation, the fractional-symbol reader, the integral model — to what they
// replaced (holdsRational over t.model(), the two map scans, RatModel.ToInt)
// on 10,000 generated (tableau, constraint) pairs: symbols the tableau never
// interned, nonbasic ones, equalities that hold exactly, invalid operators,
// coefficients that overflow int64 against promoted cells, and values whose
// floor leaves int64.
func TestCaseSplitBasisReaders(t *testing.T) {
	const tableaus, perTableau = 100, 100
	var fractionalTabs, manyFrac, bigTabs, notOK, eqHeld, held, integral int
	done := 0
	for seed := int64(1); done < tableaus; seed++ {
		g := newSysGen(seed, 10+int(seed%4)*5)
		tb := newTableau(new(scratch))
		rows := g.batch(g.nvars + 6)
		// Push the vertex off the integer grid, sometimes far off int64.
		for k := 0; k < 3; k++ {
			a, b := expr.Sym(g.rng.Intn(g.nvars)), expr.Sym(g.rng.Intn(g.nvars))
			rows = append(rows, lin(map[expr.Sym]int64{a: int64(2 + g.rng.Intn(3)), b: -1}, -1))
		}
		if seed%5 == 0 {
			rows = append(rows, g.bigRow())
		}
		if seed%10 == 0 {
			hx, hy := expr.Sym(g.nvars+1), expr.Sym(g.nvars+2)
			rows = append(rows,
				lin(map[expr.Sym]int64{hy: 1}, -(1<<62)),
				lin(map[expr.Sym]int64{hx: 2, hy: -5}, -1))
		}
		for _, l := range rows {
			tb.addGE(l)
		}
		if ok, _, err := tb.solveFresh(); err != nil || !ok {
			continue // the off-grid rows contradicted the batch: next seed
		}
		done++
		rm := tb.model()
		if hasBigCell(tb) {
			bigTabs++
		}

		// Fractional readers against both retired scans.
		all := probePicks(rm, len(rm))
		if len(all) > 0 {
			fractionalTabs++
		}
		if len(all) > 2 {
			manyFrac++
		}
		for _, k := range []int{0, 1, 2, 3, len(rm) + 1} {
			got, want := tb.fractional(k), probePicks(rm, k)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: fractional(%d) = %v, the sorted map scan says %v", seed, k, got, want)
			}
			for _, f := range got {
				if !f.OK {
					notOK++
				}
			}
		}
		pick := branchPick(rm)
		var picked []Frac
		if pick.Sym != expr.NoSym {
			picked = []Frac{pick}
		}
		if got := tb.fractional(1); !slices.Equal(got, picked) {
			t.Fatalf("seed %d: fractional(1) = %v, branch-and-bound's map scan picked %v", seed, got, picked)
		}
		if picked == nil {
			integral++
			want, werr := rm.ToInt()
			got, gerr := tb.intModel()
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() || !maps.Equal(got, want) {
				t.Fatalf("seed %d: intModel = %v, %v; RatModel.ToInt = %v, %v", seed, got, gerr, want, werr)
			}
		}

		// Literal evaluation.
		for n := 0; n < perTableau; n++ {
			l := expr.NewLin(int64(g.rng.Intn(9) - 4))
			for k := 1 + g.rng.Intn(4); k > 0; k-- {
				a := int64(g.rng.Intn(7) - 3)
				if g.rng.Intn(10) == 0 {
					a = int64(1)<<61 + int64(g.rng.Intn(100))
				}
				// Up to eight symbols past the generator's: absent ones, some
				// beyond the end of the tableau's symbol index.
				setCoeff(&l, expr.Sym(g.rng.Intn(g.nvars+8)), a)
			}
			c := expr.Constraint{L: l, Op: expr.GE}
			switch g.rng.Intn(8) {
			case 0, 1:
				c.Op = expr.EQ
			case 2:
				c.Op = expr.Op(0) // rejected by addConstraint: never holds
			}
			if g.rng.Intn(2) == 0 {
				// Land exactly on the boundary where the value allows it.
				l.Const = 0
				v := tb.value(l)
				if v.b == nil && v.isInt() {
					c.L.Const = -v.n
				}
			}
			want, err := holdsRational(c, rm)
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.holds(c); got != want {
				t.Fatalf("seed %d: holds(%v) = %v on the basis, %v under the model", seed, c, got, want)
			}
			if want {
				held++
				if c.Op == expr.EQ {
					eqHeld++
				}
			}
		}
	}
	t.Logf("%d pairs: %d held (%d equalities); %d tableaus fractional (%d with more than two), %d integral, %d with big.Rat cells, %d picks without int64 bounds",
		tableaus*perTableau, held, eqHeld, fractionalTabs, manyFrac, integral, bigTabs, notOK)
	if eqHeld == 0 || manyFrac == 0 || integral == 0 || bigTabs == 0 || notOK == 0 {
		t.Error("the generated pairs missed a held equality, a tableau with more than two fractional symbols, an integral one, a promoted cell or an int64-overflowing floor")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCaseSplitAllocs is the allocation gate on one search node: a warm
// Push / assertLit / check / evaluate / Pop step on the 250 x 240 benchmark
// system may allocate at most 1/64 of what the same step cost when the
// check deep-copied the tableau, regrew its scratch and printed a model
// (replayed here through the _test.go references), and repeating the step
// must not grow the solver's scratch or trail.
func TestCaseSplitAllocs(t *testing.T) {
	s := NewSolver(expr.NewTable())
	for _, l := range schemaShapedSystem(1, 10, 230, 20) {
		s.Assert(expr.GEZero(l))
	}
	if st, err := s.check(); err != nil || st != Sat {
		t.Fatalf("base system: %v %v", st, err)
	}
	lit := Lit{C: expr.GEZero(guardRow(s.lp.tab))}
	step := func() {
		s.Push()
		s.assertLit(lit)
		if st, err := s.check(); err != nil || st != Sat {
			t.Fatalf("step: %v %v", st, err)
		}
		if !s.lp.tab.holds(lit.C) {
			t.Fatal("the asserted literal does not hold at the solution")
		}
		s.Pop()
	}
	refStep := func() {
		s.Push()
		s.assertLit(lit)
		tb := s.lp.tab.deepClone()
		for _, c := range s.constraints[s.lp.count:] {
			if err := tb.addConstraint(c); err != nil {
				t.Fatal(err)
			}
		}
		if ok, _, err := tb.dualRestore(); err != nil || !ok {
			t.Fatalf("reference step: %v %v", ok, err)
		}
		if ok, _ := holdsRational(lit.C, tb.model()); !ok {
			t.Fatal("the asserted literal does not hold under the model")
		}
		s.Pop()
	}

	step() // warm: grows the scratch
	sc := &s.scratch
	capacities := func() [9]int {
		tr := &sc.trail
		return [9]int{cap(sc.acc), cap(sc.spare.idx), cap(sc.spare.num), cap(sc.spare.val),
			cap(tr.saves), cap(tr.pivots), cap(tr.idx), cap(tr.num), cap(tr.val)}
	}
	caps := capacities()
	step()
	if now := capacities(); now != caps {
		t.Errorf("a second identical step grew the scratch or trail: capacities %v -> %v", caps, now)
	}

	const n = 20
	refStep()
	got := allocated(func() {
		for i := 0; i < n; i++ {
			step()
		}
	}) / n
	ref := allocated(func() {
		for i := 0; i < n; i++ {
			refStep()
		}
	}) / n
	t.Logf("one case split allocates %d bytes; the deep-copy reference path %d", got, ref)
	if got*64 > ref {
		t.Errorf("one case split allocates %d bytes, more than 1/64 of the reference path's %d", got, ref)
	}
}
