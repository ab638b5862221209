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
			full[c] = t.rows[i].val[k]
		}
		d.coef = append(d.coef, full)
	}
	return d
}

// sameTableau describes the first difference between got and want ("" when
// got is cell for cell, id for id and symbol for symbol what want is).
func sameTableau(want, got *tableau) string {
	var big bool
	if diff := diffTableaus(toDense(want), got, &big); diff != "" {
		return diff
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

// frozen is a tableau nobody may write any more, with the deep copy taken at
// the moment it was frozen.
type frozen struct {
	name      string
	live, ref *tableau
}

// TestCloneSourceIntact grows a tree of copy-on-write clones the way the
// case-splitting search does — a parent is cloned, the clone is driven
// through addGE + dualRestore rounds, then frozen and cloned in turn, with
// siblings cloned from the same parent later — and after every step holds
// every frozen tableau to the deep copy taken when it was frozen. A quarter
// of the time the roles are swapped (the clone is frozen, the source driven):
// clone leaves neither side owning a shared row. Rounds include a pivot on
// a still-shared row, a bigRow that promotes cells, a row over a symbol the
// parent never saw, and a row no point satisfies.
func TestCloneSourceIntact(t *testing.T) {
	var sawBig, sawNewSym bool
	var infeasible, driven, copied, rowsSeen int
	for seed := int64(1); seed <= 24; seed++ {
		g := newSysGen(seed, 10+int(seed%4)*5)
		root := newTableau(new(scratch))
		first := g.batch(g.nvars + 10)
		if seed%3 == 0 {
			first = append(first, g.bigRow())
		}
		for _, l := range first {
			root.addGE(l)
		}
		if ok, _, err := root.solveFresh(); err != nil || !ok {
			continue
		}
		pool := []frozen{{"root", root, root.deepClone()}}
		check := func(what string) {
			t.Helper()
			for _, f := range pool {
				if diff := sameTableau(f.ref, f.live); diff != "" {
					t.Fatalf("seed %d, %s: frozen %s changed: %s", seed, what, f.name, diff)
				}
			}
		}
		for round := 0; round < 14; round++ {
			pi := g.rng.Intn(len(pool))
			parent := pool[pi].live
			cur := parent.clone(g.rng.Intn(3))
			name := fmt.Sprintf("%s.%d", pool[pi].name, round)
			if g.rng.Intn(4) == 0 {
				// Swap roles: the clone is the snapshot, the source moves on.
				pool[pi] = frozen{pool[pi].name + "'", cur, pool[pi].ref}
				cur = parent
			}
			check("clone of " + pool[pi].name)

			rows := g.batch(1 + g.rng.Intn(3))
			switch round % 7 {
			case 1:
				// A pivot on a row the clone has not written yet. dualRestore
				// never makes one (a row's constant only turns negative in a
				// pivot that rewrote the row), so make it by hand.
				if r := g.rng.Intn(len(cur.rows)); len(cur.rows[r].idx) > 0 {
					cur.pivot(cur.rows[r].idx[g.rng.Intn(len(cur.rows[r].idx))], r)
					check(name + " pivot on a shared row")
				}
			case 2:
				rows = append(rows, g.bigRow())
			case 4:
				fresh := expr.Sym(g.nvars + round)
				sawNewSym = sawNewSym || cur.idOf(fresh) < 0
				rows = append(rows, expr.Lin{Coeffs: map[expr.Sym]int64{fresh: 1, expr.Sym(g.rng.Intn(g.nvars)): -1}, Const: -1})
			case 6:
				rows = append(rows, expr.Lin{Coeffs: map[expr.Sym]int64{expr.Sym(g.rng.Intn(g.nvars)): -1}, Const: -1})
			}
			for k, l := range rows {
				cur.addGE(l)
				check(fmt.Sprintf("%s addGE %d", name, k))
			}
			feasible, _, err := cur.dualRestore()
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			check(name + " dualRestore")
			driven++
			copied += cur.copied
			rowsSeen += len(cur.rows)
			sawBig = sawBig || hasBigCell(cur)
			if !feasible {
				infeasible++ // an infeasible tableau is dropped, never cloned
				continue
			}
			pool = append(pool, frozen{name, cur, cur.deepClone()})
		}
	}
	t.Logf("%d driven clones copied %d of %d rows, %d infeasible endings, big.Rat cells: %v, new symbols: %v",
		driven, copied, rowsSeen, infeasible, sawBig, sawNewSym)
	if !sawBig || !sawNewSym || infeasible == 0 {
		t.Error("the generated rounds missed a promoted cell, a new symbol or an infeasible ending")
	}
	if copied == 0 || copied >= rowsSeen {
		t.Errorf("clones copied %d of %d rows: want some, not all", copied, rowsSeen)
	}
}

// TestClonePopRestoresSnapshot walks a solver through seeded
// Assert/Push/Check/Pop steps over schema-sized rows and checks the lazy
// snapshot discipline from outside: whatever the scopes above it did, every
// basis a Push saved still equals the deep copy taken at that Push, after
// every step, and Pop hands back that very tableau.
func TestClonePopRestoresSnapshot(t *testing.T) {
	checks, clones := 0, obsLazyClones.Load()
	for seed := int64(1); seed <= 12; seed++ {
		g := newSysGen(seed, 12+int(seed%3)*6)
		s := NewSolver(expr.NewTable())
		for _, l := range g.batch(g.nvars + 8) {
			s.Assert(expr.GEZero(l))
		}
		var saved []frozen // parallel to s.lpStack; a nil live where no basis was held
		verify := func(what string) {
			t.Helper()
			if len(saved) != len(s.lpStack) {
				t.Fatalf("seed %d, %s: %d snapshots for %d scopes", seed, what, len(saved), len(s.lpStack))
			}
			for i, f := range saved {
				if s.lpStack[i].tab != f.live {
					t.Fatalf("seed %d, %s: scope %d holds another tableau than its Push saved", seed, what, i)
				}
				if f.live == nil {
					continue
				}
				if diff := sameTableau(f.ref, f.live); diff != "" {
					t.Fatalf("seed %d, %s: basis saved by Push %d changed: %s", seed, what, i, diff)
				}
			}
		}
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
				s.Pop()
				f := saved[len(saved)-1]
				saved = saved[:len(saved)-1]
				if s.lp.tab != f.live || s.lp.owned {
					t.Fatalf("seed %d, %s: Pop restored tableau %p owned=%v, want the saved %p un-owned", seed, what, s.lp.tab, s.lp.owned, f.live)
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
			verify(what)
		}
	}
	if clones = obsLazyClones.Load() - clones; clones == 0 {
		t.Error("no step cloned a saved basis")
	}
	t.Logf("%d checks, %d lazy clones", checks, clones)
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
			rows = append(rows, expr.Lin{Coeffs: map[expr.Sym]int64{a: int64(2 + g.rng.Intn(3)), b: -1}, Const: -1})
		}
		if seed%5 == 0 {
			rows = append(rows, g.bigRow())
		}
		if seed%10 == 0 {
			hx, hy := expr.Sym(g.nvars+1), expr.Sym(g.nvars+2)
			rows = append(rows,
				expr.Lin{Coeffs: map[expr.Sym]int64{hy: 1}, Const: -(1 << 62)},
				expr.Lin{Coeffs: map[expr.Sym]int64{hx: 2, hy: -5}, Const: -1})
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
			l := expr.Lin{Coeffs: map[expr.Sym]int64{}, Const: int64(g.rng.Intn(9) - 4)}
			for k := 1 + g.rng.Intn(4); k > 0; k-- {
				a := int64(g.rng.Intn(7) - 3)
				if g.rng.Intn(10) == 0 {
					a = int64(1)<<61 + int64(g.rng.Intn(100))
				}
				// Up to eight symbols past the generator's: absent ones, some
				// beyond the end of the tableau's symbol index.
				l.Coeffs[expr.Sym(g.rng.Intn(g.nvars+8))] = a
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
// system may allocate at most a quarter of what the same step cost when the
// check deep-copied the tableau, regrew its scratch and printed a model
// (replayed here through the _test.go references), and repeating the step
// must not grow the solver's scratch.
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
	caps := [4]int{cap(sc.acc), cap(sc.syms), cap(sc.spare.idx), cap(sc.spare.val)}
	step()
	if now := [4]int{cap(sc.acc), cap(sc.syms), cap(sc.spare.idx), cap(sc.spare.val)}; now != caps {
		t.Errorf("a second identical step grew the scratch: capacities %v -> %v", caps, now)
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
	if got*4 > ref {
		t.Errorf("one case split allocates %d bytes, more than a quarter of the reference path's %d", got, ref)
	}
}
