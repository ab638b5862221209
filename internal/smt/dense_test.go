package smt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
)

// sysGen is a seeded generator of sparse integer constraint rows shaped like
// the systems the schema encoder emits for a threshold automaton: 10–15 % of
// the coefficients are non-zero, almost all of them ±1, and most rows hold
// (many with zero slack, so ratio tests tie) at one hidden nonnegative
// integer point. On top of that it can emit equality pairs, which end phase
// one with x0 basic at zero, and rows with coefficients near 2^59, whose
// pivots overflow int64 and promote cells to big.Rat.
type sysGen struct {
	rng     *rand.Rand
	nvars   int
	density float64
	point   []int64
}

func newSysGen(seed int64, nvars int) *sysGen {
	g := &sysGen{rng: rand.New(rand.NewSource(seed)), nvars: nvars}
	g.density = 0.10 + 0.05*g.rng.Float64()
	g.point = make([]int64, nvars)
	for i := range g.point {
		g.point[i] = int64(g.rng.Intn(4))
	}
	return g
}

// lin builds coeffs·x + c >= 0 with c chosen so that the row's value at the
// hidden point is slack.
func (g *sysGen) lin(coeffs map[expr.Sym]int64, slack int64) expr.Lin {
	return g.withSlack(lin(coeffs, 0), slack)
}

// withSlack sets l's constant so that its value at the hidden point is
// slack.
func (g *sysGen) withSlack(l expr.Lin, slack int64) expr.Lin {
	l.Const = slack
	for _, t := range l.Terms() {
		l.Const -= t.Coeff * g.point[t.Sym]
	}
	return l
}

// setCoeff makes a the coefficient of s in l.
func setCoeff(l *expr.Lin, s expr.Sym, a int64) {
	if err := l.AddTerm(s, a-l.Coeff(s)); err != nil {
		panic(err)
	}
}

// row is an ordinary sparse row. One in forty is violated at the hidden
// point, so some systems turn infeasible part-way through.
func (g *sysGen) row() expr.Lin {
	coeffs := map[expr.Sym]int64{}
	for len(coeffs) == 0 {
		for v := 0; v < g.nvars; v++ {
			if g.rng.Float64() >= g.density {
				continue
			}
			a := int64(1)
			if g.rng.Intn(8) == 0 {
				a = int64(2 + g.rng.Intn(2))
			}
			if g.rng.Intn(2) == 0 {
				a = -a
			}
			coeffs[expr.Sym(v)] = a
		}
	}
	slack := []int64{0, 0, 0, 1, 2, 4}[g.rng.Intn(6)]
	if g.rng.Intn(40) == 0 {
		slack = -int64(1 + g.rng.Intn(3))
	}
	return g.lin(coeffs, slack)
}

// eqPair is an equality through the hidden point as two opposite rows.
func (g *sysGen) eqPair() (expr.Lin, expr.Lin) {
	l := g.withSlack(g.row(), 0)
	return l, l.Neg()
}

// bigRow mixes two coefficients near 2^59 (distinct, odd offsets so they do
// not cancel or reduce) into an ordinary row.
func (g *sysGen) bigRow() expr.Lin {
	l := g.row()
	for k := 0; k < 2; k++ {
		a := int64(1)<<59 - int64(2*g.rng.Intn(1000)+1)
		if g.rng.Intn(2) == 0 {
			a = -a
		}
		setCoeff(&l, expr.Sym(g.rng.Intn(g.nvars)), a)
	}
	return g.withSlack(l, int64(g.rng.Intn(3)))
}

// edgeRow puts one coefficient of ±2^62 into an ordinary row: a pivot that
// multiplies it by 2 lands exactly on 2^63 (out of int64) or on MinInt64
// (which num never holds), so an int-lane merge gives up at the boundary.
func (g *sysGen) edgeRow() expr.Lin {
	l := g.row()
	a := int64(1) << 62
	if g.rng.Intn(2) == 0 {
		a = -a
	}
	setCoeff(&l, expr.Sym(g.rng.Intn(g.nvars)), a)
	return g.withSlack(l, int64(g.rng.Intn(3)))
}

// batch returns n rows, one in ten of them half of an equality pair.
func (g *sysGen) batch(n int) []expr.Lin {
	var out []expr.Lin
	for len(out) < n {
		if g.rng.Intn(10) == 0 {
			a, b := g.eqPair()
			out = append(out, a, b)
		} else {
			out = append(out, g.row())
		}
	}
	return out
}

// ratSame reports whether two cells hold the same value on the same lane.
// Both kernels keep cells canonical, so an equal value held as a big.Rat on
// one side and as int64s on the other is a promotion-rule bug.
func ratSame(a, b rat) bool {
	if a.b == nil && b.b == nil {
		return a.norm() == b.norm()
	}
	return a.b != nil && b.b != nil && a.b.Cmp(b.b) == 0
}

// rowInvariants describes the first way a production row breaks its
// storage rules ("" when it keeps them): exactly one lane holds the cells,
// num never holds 0 or MinInt64, a row whose cells are all int64 integers is
// on num, and sig has the bit of every column in idx.
func rowInvariants(r *row) string {
	switch {
	case r.val == nil && len(r.num) != len(r.idx):
		return fmt.Sprintf("on num with %d columns and %d cells", len(r.idx), len(r.num))
	case r.val != nil && (r.num != nil || len(r.val) != len(r.idx)):
		return fmt.Sprintf("on val with %d columns, %d cells and num %v", len(r.idx), len(r.val), r.num)
	}
	allInt := true
	for k, c := range r.idx {
		if r.sig&(1<<(uint(c)%64)) == 0 {
			return fmt.Sprintf("signature %#x misses column %d", r.sig, c)
		}
		if r.val == nil {
			if v := r.num[k]; v == 0 || v == math.MinInt64 {
				return fmt.Sprintf("num holds %d at column %d", v, c)
			}
		} else {
			allInt = allInt && r.val[k].b == nil && r.val[k].isInt()
		}
	}
	if r.val != nil && allInt {
		return fmt.Sprintf("on val, but every cell is an int64 integer: %v", r.val)
	}
	return ""
}

// onNum reports, per row, whether it is on the int lane.
func onNum(t *tableau) []bool {
	out := make([]bool, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].val == nil
	}
	return out
}

// laneMoves tallies the ways rows change lanes in pivots: a pivot row
// leaving num on a non-unit element, a row leaving num because a merge of
// two rows on num overflowed, and a row returning from val to num.
type laneMoves struct{ nonUnit, overflow, demoted int }

// pivot applies t.pivot(e, r) and tallies the lane changes it made.
func (m *laneMoves) pivot(t *tableau, e int32, r int) {
	before := onNum(t)
	unit := false
	if k := t.rows[r].find(e); k >= 0 {
		p := t.rows[r].cell(k)
		unit = p.cmp(ratInt(1)) == 0 || p.cmp(ratInt(-1)) == 0
	}
	t.pivot(e, r)
	after := onNum(t)
	for i := range after {
		switch {
		case before[i] && !after[i] && i == r && !unit:
			m.nonUnit++
		case before[i] && !after[i] && i != r && after[r]:
			m.overflow++
		case !before[i] && after[i]:
			m.demoted++
		}
	}
}

// diffTableaus compares the sparse production tableau with the dense
// reference cell for cell, checks the sparse representation's own
// invariants, and returns a description of the first difference ("" when
// equal). big is set when any cell is held as a big.Rat.
func diffTableaus(d *denseTableau, s *tableau, big *bool) string {
	if !slices.Equal(d.nonbasic, s.nonbasic) {
		return fmt.Sprintf("nonbasic order: dense %v, sparse %v", d.nonbasic, s.nonbasic)
	}
	if !slices.Equal(d.basic, s.basic) {
		return fmt.Sprintf("basic order: dense %v, sparse %v", d.basic, s.basic)
	}
	if d.nextVar != s.nextVar || d.x0 != s.x0 {
		return fmt.Sprintf("nextVar/x0: dense %d/%d, sparse %d/%d", d.nextVar, d.x0, s.nextVar, s.x0)
	}
	if len(s.consts) != len(s.basic) || len(s.rows) != len(s.basic) {
		return fmt.Sprintf("sparse has %d rows, %d consts, %d basic", len(s.rows), len(s.consts), len(s.basic))
	}
	for id := 0; id < s.nextVar; id++ {
		c, r := s.colAt[id], s.rowAt[id]
		switch {
		case c >= 0 && (r >= 0 || s.nonbasic[c] != id),
			r >= 0 && s.basic[r] != id,
			c < 0 && r < 0 && (d.nonbasicColOf(id) >= 0 || d.basicRowOf(id) >= 0):
			return fmt.Sprintf("variable %d located at col %d row %d", id, c, r)
		}
	}
	for i := range s.rows {
		if !ratSame(d.consts[i], s.consts[i]) {
			return fmt.Sprintf("const of row %d: dense %s, sparse %s", i, d.consts[i], s.consts[i])
		}
		*big = *big || s.consts[i].b != nil
		full := make([]rat, len(s.nonbasic))
		prev := int32(-1)
		if diff := rowInvariants(&s.rows[i]); diff != "" {
			return fmt.Sprintf("row %d: %s", i, diff)
		}
		for k, c := range s.rows[i].idx {
			v := s.rows[i].cell(k)
			if c <= prev || int(c) >= len(full) || v.sign() == 0 {
				return fmt.Sprintf("row %d entry %d: column %d after %d, value %s", i, k, c, prev, v)
			}
			prev = c
			full[c] = v
			*big = *big || v.b != nil
		}
		for j := range full {
			if !ratSame(d.coef[i][j], full[j]) {
				return fmt.Sprintf("cell (%d,%d): dense %s, sparse %s", i, j, d.coef[i][j], full[j])
			}
		}
	}
	if d.objA != nil && s.objA != nil {
		if !ratSame(d.objC, s.objC) {
			return fmt.Sprintf("objective constant: dense %s, sparse %s", d.objC, s.objC)
		}
		for j := range d.objA {
			if !ratSame(d.objA[j], s.objA[j]) {
				return fmt.Sprintf("objective cell %d: dense %s, sparse %s", j, d.objA[j], s.objA[j])
			}
		}
	}
	return ""
}

// TestDenseReferenceKernel runs seeded systems through three tableaus at
// once: the dense reference; a production tableau that mirrors every
// primitive step the reference takes (so each pivot is applied by both
// kernels to equal inputs and compared cell for cell straight after); and a
// production tableau driven by its own solveFresh/dualRestore, whose state,
// verdict and pivot count must match the reference after every stage (so
// its entering/leaving choices were the same ones). Stages mimic the
// incremental cursor: one fresh solve, then rounds of a few appended rows
// and a dual restore, each pair of rounds inside a scope; undoing the scope
// must give back the tableau as it was when the scope opened. Every
// row keeps its storage rules after every step (rowInvariants), and the
// mirrored pivots must move rows off the int lane both ways — a non-unit
// pivot element, an int merge overflowing at 2^62·2 — and back onto it.
func TestDenseReferenceKernel(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 12
	}
	var sawBig bool
	var moves laneMoves
	var degenerate, rowDeleted, infeasible, pivots int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := newSysGen(seed, 10+int(seed%4)*5)
		dense, mirror, prod := newDenseTableau(), newTableau(new(scratch)), newTableau(new(scratch))
		same := func(what string, s *tableau) {
			t.Helper()
			if diff := diffTableaus(dense, s, &sawBig); diff != "" {
				t.Fatalf("seed %d, %s: %s", seed, what, diff)
			}
		}
		steps := 0
		dense.step = func(kind string, e, r int) {
			t.Helper()
			steps++
			switch kind {
			case "addX0":
				mirror.addX0()
			case "pivot":
				moves.pivot(mirror, int32(e), r)
			case "dropX0":
				mirror.objA = nil
				if err := mirror.dropX0(); err != nil {
					t.Fatalf("seed %d: mirror dropX0: %v", seed, err)
				}
			}
			same(fmt.Sprintf("step %d (%s e=%d r=%d)", steps, kind, e, r), mirror)
		}
		add := func(ls []expr.Lin) {
			t.Helper()
			for _, l := range ls {
				dense.addGE(l)
				mirror.addGE(l)
				prod.addGE(l)
			}
			same("after addGE (mirror)", mirror)
			same("after addGE (drivers)", prod)
		}
		stage := func(name string, ref, run func() (bool, int, error)) bool {
			t.Helper()
			wantOK, wantPivots, wantErr := ref()
			gotOK, gotPivots, gotErr := run()
			if wantErr != nil || gotErr != nil {
				t.Fatalf("seed %d, %s: errors dense=%v sparse=%v", seed, name, wantErr, gotErr)
			}
			if gotOK != wantOK || gotPivots != wantPivots {
				t.Fatalf("seed %d, %s: sparse feasible=%v after %d pivots, dense feasible=%v after %d",
					seed, name, gotOK, gotPivots, wantOK, wantPivots)
			}
			pivots += wantPivots
			same(name+" (mirror)", mirror)
			same(name+" (drivers)", prod)
			if !wantOK {
				infeasible++
			}
			return wantOK
		}

		// A minor of the system takes one entry per row, so each big row
		// multiplies cell magnitudes by another 2^59: one or two are enough
		// to leave int64, more only slow the test down.
		first := g.batch(g.nvars + 10)
		switch seed % 3 {
		case 0:
			first = append(first, g.bigRow())
		case 1:
			first = append(first, g.edgeRow())
		}
		add(first)
		if !stage("fresh solve", dense.solveFresh, prod.solveFresh) {
			continue
		}
		var opened []frozen // the tableaus marked for this pair of rounds, with deep copies taken then
		for round := 0; round < 12; round++ {
			if round%2 == 0 {
				opened = []frozen{{"mirror", mirror, mirror.deepClone()}, {"drivers", prod, prod.deepClone()}}
				if !mirror.mark() || !prod.mark() {
					t.Fatalf("seed %d, round %d: a solved tableau refused a mark", seed, round)
				}
			}
			next := g.batch(1 + g.rng.Intn(3))
			if seed%6 == 0 && round == 4 {
				next = append(next, g.bigRow())
			}
			add(next)
			feasible := stage(fmt.Sprintf("round %d", round), dense.dualRestore, prod.dualRestore)
			if round%2 == 1 || !feasible {
				// Close the scope: undo must give back the tableau as it was
				// marked. The rounds go on from a deep copy of where it stood.
				for k, f := range opened {
					cont := f.live.deepClone()
					f.live.undo()
					if diff := sameTableau(f.ref, f.live); diff != "" {
						t.Fatalf("seed %d, round %d: undoing the %s tableau's scope left it changed: %s", seed, round, f.name, diff)
					}
					opened[k].live = cont
				}
				mirror, prod = opened[0].live, opened[1].live
			}
			if !feasible {
				break
			}
		}
		degenerate += dense.x0Basic
		rowDeleted += dense.x0RowDeleted
	}
	t.Logf("%d seeds: %d pivots, %d infeasible endings, %d degenerate phase ones (%d by row deletion), big.Rat cells seen: %v, lane moves %+v",
		seeds, pivots, infeasible, degenerate, rowDeleted, sawBig, moves)
	if moves.nonUnit == 0 || moves.overflow == 0 || moves.demoted == 0 {
		t.Errorf("lane moves %+v: want rows to leave num on a non-unit pivot and on an overflowing merge, and to return to it", moves)
	}
	if !sawBig {
		t.Error("no generated system promoted a cell to big.Rat")
	}
	if degenerate == 0 {
		t.Error("no generated system ended phase one with x0 basic (dropX0's pivot path)")
	}
	if infeasible == 0 {
		t.Error("no generated system became infeasible")
	}
}
