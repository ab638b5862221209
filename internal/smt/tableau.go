package smt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/expr"
)

// tableau is a dictionary-form simplex tableau for the feasibility problem
//
//	find x >= 0 subject to each constraint  L_i(x) >= 0
//
// Each constraint becomes a slack row  w_i = const_i + Σ a_ij·x_j  with
// w_i >= 0. Initial feasibility is decided with the textbook phase-one
// auxiliary variable x0 (maximize -x0) and Bland's rule, in exact
// arithmetic.
//
// After a feasible solve the tableau supports *incremental* use: new
// constraints are appended as rows (rewritten through the current basis) and
// feasibility is restored with dual-simplex pivots. This is what makes the
// DPLL(T)-style clause search and branch-and-bound affordable: a child node
// differs from its parent by one or two rows and typically needs only a few
// pivots instead of a full phase-one solve.
//
// A search node works on the one tableau in place and backtracks by undo:
// mark opens a scope, every write after it that a later undo must reverse is
// first logged on the trail, and undo replays the scope's part of the trail
// backwards. A node therefore pays for the rows its pivots touch, not for the
// whole dictionary.
type tableau struct {
	varOf   []int32 // symbol -> variable id, -1 where the symbol is not interned
	nextVar int

	nonbasic []int // variable ids of nonbasic columns
	basic    []int // variable ids of basic rows
	consts   []rat // row constants
	rows     []row // row coefficients over the nonbasic columns

	// colAt and rowAt locate a variable by id: its nonbasic column or its
	// basic row, -1 where it is not (both -1 once x0 has been dropped).
	colAt, rowAt []int32

	// phase-one objective (nil outside the initial solve), dense over the
	// nonbasic columns
	objA []rat
	objC rat
	x0   int // variable id of the auxiliary variable, -1 if absent

	marks  []mark // open scopes, innermost last
	logged int    // rows saved on the trail since the last check read it

	*scratch
}

// scratch holds the storage every tableau of a Solver shares (newTableau
// passes the pointer on). acc is addGE's dense accumulator (all zero between
// calls) and spare the buffer substitute merges a rewritten row into; they
// carry nothing between calls and are grown once per query rather than once
// per search node. trail carries the open scopes' undo records.
type scratch struct {
	acc   []rat
	spare row
	trail trail
}

// trail is the undo log of the open scopes, innermost last. Scopes nest, so
// one log serves every tableau of a Solver: a tableau that replaces another
// inside a scope (a rebuild) is marked only by later, inner scopes, which
// close first.
//
// The invariant undo rests on: inside a scope, a row that existed when the
// scope opened is saved here before its first write — cells into the slabs
// idx and num or val, header and constant into saves — and every pivot and
// every symbol bound to a column are recorded. A row's constant only changes
// in a write to the row, so the constant at its first write is the one the
// scope opened with; likewise basic, nonbasic, colAt and rowAt only change
// in a pivot, which its (column, row) record reverses exactly.
type trail struct {
	epoch  uint64    // the last scope id handed out
	saves  []rowSave // one per row per scope, in write order
	pivots []pivotAt
	binds  []expr.Sym // symbols colFor bound to a new variable
	idx    []int32    // the saved rows' cells, in saves order
	num    []int64
	val    []rat
}

// rowSave is a row's header and constant as a scope opened with them; its
// cells are the next n entries of the slabs (num or val by lane).
type rowSave struct {
	i     int32
	n     int32
	onVal bool
	sig   uint64
	stamp uint64 // the row's stamp before this save
	cst   rat
}

// pivotAt records pivot(e, r).
type pivotAt struct {
	e int32
	r int32
}

// mark is where a tableau and the trail stood when a scope opened.
type mark struct {
	epoch                  uint64
	rows, cols, vars, syms int // len(rows), len(nonbasic), nextVar, len(varOf)
	saves, pivots, binds   int // the trail's logs
	idx, num, val          int // and its slabs
}

// row holds the non-zero coefficients of one dictionary row, by ascending
// column position. Encodings of threshold automata leave well over 85 % of a
// tableau zero, and a pivot only ever combines a row with the pivot row, so
// every kernel loop walks these lists instead of the full column range.
// Which variable a position denotes is nonbasic[position], exactly as in a
// dense layout, and Bland's rule picks by variable id, so no entering or
// leaving choice depends on the storage.
//
// The coefficients live on exactly one of two lanes: rat's own int64 lane,
// moved from the cell to the row. num holds them while every one is an int64
// integer other than MinInt64 — nearly every row of a threshold-automaton
// search — as 8-byte cells with no pointer, and val is nil; val holds them,
// and num is nil, only while some cell is fractional or promoted to big.Rat.
// A row returns to num as soon as it fits again (settle). sig has bit c mod
// 64 set for every column c in idx (a superset would do), so a pivot passes
// over a row that cannot mention the entering column without searching it.
type row struct {
	idx []int32
	num []int64 // num[k] is the coefficient at column idx[k]; never 0 or MinInt64
	val []rat   // val[k] likewise, never zero; nil while the row is on num
	sig uint64
	// stamp is the id of the innermost scope that saved the row on the
	// trail (0: none open saved it), so a row is saved once per scope.
	stamp uint64
}

// colBit is column c's bit in a row signature.
func colBit(c int32) uint64 { return 1 << (uint32(c) & 63) }

// fitsNum reports whether v can be held on the int lane.
func fitsNum(v rat) bool { return v.b == nil && v.d == 1 && v.n != math.MinInt64 }

// cell returns the coefficient at idx[k].
func (r *row) cell(k int) rat {
	if r.val == nil {
		return ratInt(r.num[k])
	}
	return r.val[k]
}

// sign returns the sign of the coefficient at idx[k] (never 0).
func (r *row) sign(k int) int {
	if r.val == nil {
		if r.num[k] > 0 {
			return 1
		}
		return -1
	}
	return r.val[k].sign()
}

// settle moves a row on val whose cells all fit the int lane back to num,
// appending them to buf.
func (r *row) settle(buf []int64) {
	if r.val == nil {
		return
	}
	for _, v := range r.val {
		if !fitsNum(v) {
			return
		}
	}
	for _, v := range r.val {
		buf = append(buf, v.n)
	}
	r.num, r.val = buf, nil
}

// mulNum returns d·x and whether it fits the int lane. A unit multiplier
// needs no check: num never holds MinInt64, so ±x always fits.
func mulNum(d, x int64, unit bool) (int64, bool) {
	if unit {
		return d * x, true
	}
	p, ok := mul64(d, x)
	return p, ok && p != math.MinInt64
}

// lowerBound returns the first index k with r.idx[k] >= c.
func (r *row) lowerBound(c int32) int {
	lo, hi := 0, len(r.idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.idx[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the index of column c in r.idx, or -1 when the coefficient
// is zero; the signature answers most misses without a search.
func (r *row) find(c int32) int {
	if r.sig&colBit(c) == 0 {
		return -1
	}
	if k := r.lowerBound(c); k < len(r.idx) && r.idx[k] == c {
		return k
	}
	return -1
}

// push appends a cell to a row on val.
func (r *row) push(c int32, v rat) {
	r.idx = append(r.idx, c)
	r.val = append(r.val, v)
	r.sig |= colBit(c)
}

// maxPivots bounds a single simplex phase; Bland's rule guarantees
// termination so this is purely defensive.
const maxPivots = 200000

var errPivotLimit = errors.New("smt: simplex pivot limit exceeded")

// newTableau returns an empty tableau working in sc.
func newTableau(sc *scratch) *tableau {
	return &tableau{x0: -1, scratch: sc}
}

// mark opens a scope and reports whether it could: a tableau in phase one
// (x0 or the objective present) adds and deletes columns and rows in ways
// the trail does not record, and is never marked.
func (t *tableau) mark() bool {
	if t.x0 != -1 || t.objA != nil {
		return false
	}
	tr := &t.trail
	tr.epoch++
	t.marks = append(t.marks, mark{
		epoch: tr.epoch,
		rows:  len(t.rows), cols: len(t.nonbasic), vars: t.nextVar, syms: len(t.varOf),
		saves: len(tr.saves), pivots: len(tr.pivots), binds: len(tr.binds),
		idx: len(tr.idx), num: len(tr.num), val: len(tr.val),
	})
	return true
}

// save logs row i on the trail before its first write in the innermost
// scope, if one is open and the row is older than it.
func (t *tableau) save(i int) {
	if len(t.marks) == 0 {
		return
	}
	m := &t.marks[len(t.marks)-1]
	r := &t.rows[i]
	if i >= m.rows || r.stamp == m.epoch {
		return
	}
	tr := &t.trail
	tr.saves = append(tr.saves, rowSave{
		i: int32(i), n: int32(len(r.idx)), onVal: r.val != nil,
		sig: r.sig, stamp: r.stamp, cst: t.consts[i],
	})
	tr.idx = append(tr.idx, r.idx...)
	if r.val == nil {
		tr.num = append(tr.num, r.num...)
	} else {
		tr.val = append(tr.val, r.val...)
	}
	r.stamp = m.epoch
	t.logged++
}

// undo closes the innermost scope, restoring the tableau to what it was
// when mark opened it. Saved cells go back into the row's current storage
// where it has the room, and the rows the scope appended are cut off with
// their storage left in place for addRow to reuse.
func (t *tableau) undo() {
	m := t.marks[len(t.marks)-1]
	t.marks = t.marks[:len(t.marks)-1]
	tr := &t.trail
	idx, num, val := len(tr.idx), len(tr.num), len(tr.val)
	for k := len(tr.saves) - 1; k >= m.saves; k-- {
		sv := &tr.saves[k]
		r := &t.rows[sv.i]
		n := int(sv.n)
		idx -= n
		r.idx = append(r.idx[:0], tr.idx[idx:idx+n]...)
		if sv.onVal {
			val -= n
			r.num, r.val = nil, append(r.val[:0], tr.val[val:val+n]...)
		} else {
			num -= n
			r.num, r.val = append(r.num[:0], tr.num[num:num+n]...), nil
		}
		r.sig, r.stamp = sv.sig, sv.stamp
		t.consts[sv.i] = sv.cst
	}
	for k := len(tr.pivots) - 1; k >= m.pivots; k-- {
		e, r := tr.pivots[k].e, tr.pivots[k].r
		entered, left := t.basic[r], t.nonbasic[e]
		t.basic[r], t.nonbasic[e] = left, entered
		t.rowAt[left], t.colAt[left] = r, -1
		t.rowAt[entered], t.colAt[entered] = -1, e
	}
	for _, s := range tr.binds[m.binds:] {
		t.varOf[s] = -1
	}
	t.rows, t.basic, t.consts = t.rows[:m.rows], t.basic[:m.rows], t.consts[:m.rows]
	t.nonbasic, t.varOf, t.nextVar = t.nonbasic[:m.cols], t.varOf[:m.syms], m.vars
	t.colAt, t.rowAt = t.colAt[:m.vars], t.rowAt[:m.vars]
	tr.saves, tr.pivots, tr.binds = tr.saves[:m.saves], tr.pivots[:m.pivots], tr.binds[:m.binds]
	tr.idx, tr.num, tr.val = tr.idx[:m.idx], tr.num[:m.num], tr.val[:m.val]
}

// newVar allocates the next variable id, located nowhere yet.
func (t *tableau) newVar() int {
	id := t.nextVar
	t.nextVar++
	t.colAt = append(t.colAt, -1)
	t.rowAt = append(t.rowAt, -1)
	return id
}

// newCol appends a nonbasic column for variable id; no row mentions it yet.
func (t *tableau) newCol(id int) int32 {
	c := int32(len(t.nonbasic))
	t.nonbasic = append(t.nonbasic, id)
	t.colAt[id] = c
	return c
}

// idOf returns the variable id of symbol s, -1 when s is not interned.
func (t *tableau) idOf(s expr.Sym) int {
	if uint(s) < uint(len(t.varOf)) {
		return int(t.varOf[s])
	}
	return -1
}

// colFor returns the variable id for a symbol, creating a fresh nonbasic
// column when the symbol is new.
func (t *tableau) colFor(s expr.Sym) int {
	if id := t.idOf(s); id >= 0 {
		return id
	}
	for len(t.varOf) <= int(s) {
		t.varOf = append(t.varOf, -1)
	}
	id := t.newVar()
	t.varOf[s] = int32(id)
	if len(t.marks) > 0 {
		t.trail.binds = append(t.trail.binds, s)
	}
	t.newCol(id)
	return id
}

// addGE appends the row for L >= 0, rewriting basic variables through their
// current dictionary rows.
func (t *tableau) addGE(l expr.Lin) { t.addRow(l, 1) }

// addRow appends the row for sign·L >= 0 (sign is 1 or -1). The terms come
// in symbol order, and so new symbols get their columns in symbol order:
// the column layout — and with it which column a degenerate phase one
// pivots x0 out on and which optimal vertex the relaxation lands on — is a
// function of the constraints alone, so identical solves take identical
// pivots.
func (t *tableau) addRow(l expr.Lin, sign int64) {
	terms := l.Terms()
	for len(t.acc) < len(t.nonbasic)+len(terms) {
		t.acc = append(t.acc, ratZero)
	}
	rowConst := ratInt(sign * l.Const)
	for _, term := range terms {
		id := t.colFor(term.Sym)
		ar := ratInt(sign * term.Coeff)
		if c := t.colAt[id]; c >= 0 {
			t.acc[c] = t.acc[c].add(ar)
			continue
		}
		r := t.rowAt[id]
		rowConst = rowConst.addMul(ar, t.consts[r])
		br := &t.rows[r]
		if br.val == nil {
			for k, c := range br.idx {
				t.acc[c] = t.acc[c].addMul(ar, ratInt(br.num[k]))
			}
		} else {
			for k, c := range br.idx {
				t.acc[c] = t.acc[c].addMul(ar, br.val[k])
			}
		}
	}
	acc := t.acc[:len(t.nonbasic)]
	nnz, ints := 0, true
	for _, a := range acc {
		if a.sign() != 0 {
			nnz++
			ints = ints && fitsNum(a)
		}
	}
	var nr row
	if n := len(t.rows); n < cap(t.rows) {
		// The storage of a row an undo cut off, dead since: reuse it.
		old := t.rows[:n+1][n]
		nr.idx, nr.num, nr.val = old.idx[:0], old.num[:0], old.val[:0]
	}
	nr.idx = slices.Grow(nr.idx, nnz)
	if ints {
		nr.num, nr.val = slices.Grow(nr.num, nnz), nil
	} else {
		nr.num, nr.val = nil, slices.Grow(nr.val, nnz)
	}
	for c, a := range acc {
		if a.sign() == 0 {
			continue
		}
		if ints {
			nr.idx = append(nr.idx, int32(c))
			nr.num = append(nr.num, a.n)
			nr.sig |= colBit(int32(c))
		} else {
			nr.push(int32(c), a)
		}
		acc[c] = ratZero
	}
	slack := t.newVar()
	t.rowAt[slack] = int32(len(t.basic))
	t.basic = append(t.basic, slack)
	t.consts = append(t.consts, rowConst)
	t.rows = append(t.rows, nr)
}

// addConstraint appends rows for a constraint (two for an equality).
func (t *tableau) addConstraint(c expr.Constraint) error {
	switch c.Op {
	case expr.GE:
		t.addRow(c.L, 1)
	case expr.EQ:
		t.addRow(c.L, 1)
		t.addRow(c.L, -1)
	default:
		return fmt.Errorf("smt: unsupported constraint operator %v", c.Op)
	}
	return nil
}

// addX0 introduces the phase-one auxiliary variable with coefficient +1 in
// every row and the objective -x0, and returns its column. Phase one runs
// only on a tableau no scope has marked.
func (t *tableau) addX0() int32 {
	t.x0 = t.newVar()
	c := t.newCol(t.x0)
	for i := range t.rows {
		if r := &t.rows[i]; r.val == nil {
			r.idx = append(r.idx, c)
			r.num = append(r.num, 1)
			r.sig |= colBit(c)
		} else {
			r.push(c, ratInt(1))
		}
	}
	t.objA = make([]rat, len(t.nonbasic))
	t.objA[c] = ratInt(-1)
	t.objC = ratZero
	return c
}

// solveFresh runs phase one from scratch. It returns feasibility and the
// pivot count.
func (t *tableau) solveFresh() (bool, int, error) {
	worst, worstRow := ratZero, -1
	for i, c := range t.consts {
		if c.cmp(worst) < 0 {
			worst = c
			worstRow = i
		}
	}
	if worstRow == -1 {
		return true, 0, nil
	}
	// With no columns at all a negative constant can never be repaired (it
	// encodes a violated variable-free constraint).
	if len(t.nonbasic) == 0 {
		return false, 0, nil
	}

	// Special first pivot: enter x0, leave the most-negative row.
	t.pivot(t.addX0(), worstRow)
	pivots := 1

	for {
		if pivots > maxPivots {
			return false, pivots, errPivotLimit
		}
		// Bland entering rule: smallest variable id with positive objective
		// coefficient.
		enter := -1
		for j, a := range t.objA {
			if a.sign() > 0 && (enter == -1 || t.nonbasic[j] < t.nonbasic[enter]) {
				enter = j
			}
		}
		if enter == -1 {
			feasible := t.objC.sign() == 0
			t.objA = nil
			if feasible {
				if err := t.dropX0(); err != nil {
					return false, pivots, err
				}
			}
			return feasible, pivots, nil
		}
		// Ratio test over rows where the entering coefficient is negative;
		// ties go to the smallest basic variable id.
		leave := -1
		var best rat
		for i := range t.rows {
			ri := &t.rows[i]
			k := ri.find(int32(enter))
			if k < 0 || ri.sign(k) > 0 {
				continue
			}
			ratio := t.consts[i].div(ri.cell(k).neg())
			take := leave == -1
			if !take {
				c := ratio.cmp(best)
				take = c < 0 || (c == 0 && t.basic[i] < t.basic[leave])
			}
			if take {
				leave = i
				best = ratio
			}
		}
		if leave == -1 {
			// -x0 is bounded above by 0, so phase one cannot be unbounded.
			return false, pivots, errors.New("smt: phase-one simplex unbounded")
		}
		t.pivot(int32(enter), leave)
		pivots++
	}
}

// dropX0 removes the auxiliary variable after a successful phase one. If x0
// is basic (necessarily at value 0), it is pivoted out first.
func (t *tableau) dropX0() error {
	if t.x0 == -1 {
		return nil
	}
	if r := int(t.rowAt[t.x0]); r >= 0 {
		if xr := &t.rows[r]; len(xr.idx) > 0 {
			// Degenerate: pivot x0 out on its first nonzero column.
			t.pivot(xr.idx[0], r)
		} else {
			// The row reads x0 = 0: delete it outright.
			t.basic = append(t.basic[:r], t.basic[r+1:]...)
			t.consts = append(t.consts[:r], t.consts[r+1:]...)
			// Delete clears the vacated last slot: a header left there would
			// share the last row's storage, which addRow would then reuse.
			t.rows = slices.Delete(t.rows, r, r+1)
			t.rowAt[t.x0] = -1
			for _, id := range t.basic[r:] {
				t.rowAt[id]--
			}
		}
	}
	col := t.colAt[t.x0]
	if col == -1 {
		if t.rowAt[t.x0] >= 0 {
			return errors.New("smt: failed to eliminate auxiliary variable")
		}
		t.x0 = -1
		return nil
	}
	t.nonbasic = append(t.nonbasic[:col], t.nonbasic[col+1:]...)
	t.colAt[t.x0] = -1
	for _, id := range t.nonbasic[col:] {
		t.colAt[id]--
	}
	for i := range t.rows {
		r := &t.rows[i]
		k := r.lowerBound(col)
		if k < len(r.idx) && r.idx[k] == col {
			r.idx = append(r.idx[:k], r.idx[k+1:]...)
			if r.val == nil {
				r.num = append(r.num[:k], r.num[k+1:]...)
			} else {
				r.val = append(r.val[:k], r.val[k+1:]...)
			}
		}
		for ; k < len(r.idx); k++ {
			r.idx[k]--
		}
		r.sig = 0
		for _, c := range r.idx {
			r.sig |= colBit(c)
		}
		r.settle(nil)
	}
	t.x0 = -1
	return nil
}

// dualRestore re-establishes primal feasibility after rows were appended,
// using dual-simplex pivots with Bland-style anti-cycling (the objective is
// identically zero, so any basis is dual-feasible). It returns false when
// some row is irreparable, i.e. the system became infeasible.
func (t *tableau) dualRestore() (bool, int, error) {
	pivots := 0
	for {
		if pivots > maxPivots {
			return false, pivots, errPivotLimit
		}
		// Leaving row: smallest basic variable id among negative constants.
		leave := -1
		for i, c := range t.consts {
			if c.sign() < 0 && (leave == -1 || t.basic[i] < t.basic[leave]) {
				leave = i
			}
		}
		if leave == -1 {
			return true, pivots, nil
		}
		// Entering column: the row reads w = C + Σ A_j·x_j with C < 0, so
		// only columns with A_j > 0 can repair it. Bland: smallest id.
		enter := int32(-1)
		lr := &t.rows[leave]
		for k, c := range lr.idx {
			if lr.sign(k) > 0 && (enter == -1 || t.nonbasic[c] < t.nonbasic[enter]) {
				enter = c
			}
		}
		if enter == -1 {
			return false, pivots, nil // row is irreparable: infeasible
		}
		t.pivot(enter, leave)
		pivots++
	}
}

// pivot makes nonbasic column e basic and the basic variable of row r
// nonbasic, rewriting every row that mentions column e and the objective.
func (t *tableau) pivot(e int32, r int) {
	if len(t.marks) > 0 {
		t.trail.pivots = append(t.trail.pivots, pivotAt{e: e, r: int32(r)})
	}
	t.save(r)
	pr := &t.rows[r]
	pe := pr.find(e)
	p := pr.cell(pe)

	leavingVar := t.basic[r]
	enteringVar := t.nonbasic[e]

	// Solve row r for the entering variable, in place:
	//   x_e = (-C/p) + (1/p)·x_leaving + Σ_{j≠e} (-A_j/p)·x_j
	// On a unit element of a row on num that is a negation (p = 1) or
	// nothing at all (p = -1); any other element leaves the int lane.
	var newConst rat
	switch {
	case pr.val == nil && p.n == 1:
		newConst = t.consts[r].neg()
		for k := range pr.num {
			if k != pe {
				pr.num[k] = -pr.num[k]
			}
		}
	case pr.val == nil && p.n == -1:
		newConst = t.consts[r]
	default:
		invNeg := ratInt(-1).div(p)
		newConst = t.consts[r].mul(invNeg)
		val := pr.val
		if val == nil {
			val = make([]rat, len(pr.num))
		}
		for k := range val {
			if k == pe {
				val[k] = ratInt(1).div(p)
			} else {
				val[k] = pr.cell(k).mul(invNeg)
			}
		}
		pr.num, pr.val = nil, val
		pr.settle(nil)
	}
	t.basic[r] = enteringVar
	t.nonbasic[e] = leavingVar
	t.rowAt[enteringVar], t.colAt[enteringVar] = int32(r), -1
	t.rowAt[leavingVar], t.colAt[leavingVar] = -1, e
	t.consts[r] = newConst

	bit := colBit(e)
	for i := range t.rows {
		if i == r || t.rows[i].sig&bit == 0 {
			continue
		}
		k := t.rows[i].find(e)
		if k < 0 {
			continue
		}
		d := t.rows[i].cell(k)
		t.save(i)
		t.consts[i] = t.consts[i].addMul(d, newConst)
		t.substitute(i, d, e, pr)
	}
	if t.objA != nil {
		if d := t.objA[e]; d.sign() != 0 {
			t.objC = t.objC.addMul(d, newConst)
			for k, c := range pr.idx {
				if c == e {
					t.objA[c] = d.mul(pr.cell(k))
				} else {
					t.objA[c] = t.objA[c].addMul(d, pr.cell(k))
				}
			}
		}
	}
}

// substitute rewrites row i, whose coefficient on column e was d, through
// the solved pivot row pr: every column of pr gains d·pr[c], and column e —
// now the leaving variable's — is replaced by d·pr[e]. The two sorted lists
// are merged into the spare buffer and copied back, so a row's storage only
// ever grows to what fill-in has made it need. The merge runs on the int
// lane when both rows are there; the rat merge is its fallback, taken when
// either row is on val or an int merge overflows.
func (t *tableau) substitute(i int, d rat, e int32, pr *row) {
	ri := &t.rows[i]
	out, ok := t.mergeNum(ri, d.n, e, pr)
	if !ok {
		out = t.mergeVal(ri, d, e, pr)
	}
	ri.idx, ri.sig = append(ri.idx[:0], out.idx...), out.sig
	if out.val == nil {
		ri.num, ri.val = append(ri.num[:0], out.num...), nil
	} else {
		ri.num, ri.val = nil, append(ri.val[:0], out.val...)
	}
}

// mergeNum is substitute's merge on the int lane, into the spare buffer:
// every product and sum is overflow-checked, and it gives up (false) as soon
// as one leaves int64 or lands on MinInt64, having written nothing but the
// spare buffer.
func (t *tableau) mergeNum(ri *row, d int64, e int32, pr *row) (row, bool) {
	if ri.val != nil || pr.val != nil {
		return row{}, false
	}
	n := len(ri.idx) + len(pr.idx)
	idx, num := slices.Grow(t.spare.idx[:0], n)[:n], slices.Grow(t.spare.num[:0], n)[:n]
	t.spare.idx, t.spare.num = idx, num
	var sig uint64
	unit := d == 1 || d == -1
	o, a, b := 0, 0, 0
	for a < len(ri.idx) && b < len(pr.idx) {
		c, v := ri.idx[a], int64(0)
		switch cb := pr.idx[b]; {
		case c < cb:
			v = ri.num[a]
			a++
		case cb < c:
			p, ok := mulNum(d, pr.num[b], unit)
			if !ok {
				return row{}, false
			}
			c, v = cb, p
			b++
		default:
			p, ok := mulNum(d, pr.num[b], unit)
			if ok && c != e {
				p, ok = add64(ri.num[a], p)
				ok = ok && p != math.MinInt64
			}
			if !ok {
				return row{}, false
			}
			a++
			b++
			if p == 0 {
				continue
			}
			v = p
		}
		idx[o], num[o] = c, v
		sig |= colBit(c)
		o++
	}
	for ; a < len(ri.idx); a++ {
		idx[o], num[o] = ri.idx[a], ri.num[a]
		sig |= colBit(ri.idx[a])
		o++
	}
	for ; b < len(pr.idx); b++ {
		p, ok := mulNum(d, pr.num[b], unit)
		if !ok {
			return row{}, false
		}
		idx[o], num[o] = pr.idx[b], p
		sig |= colBit(pr.idx[b])
		o++
	}
	return row{idx: idx[:o], num: num[:o], sig: sig}, true
}

// mergeVal is substitute's exact merge, for rows on either lane, into the
// spare buffer; a result that fits the int lane comes back on num.
func (t *tableau) mergeVal(ri *row, d rat, e int32, pr *row) row {
	out := row{idx: t.spare.idx[:0], val: t.spare.val[:0]}
	a, b := 0, 0
	for a < len(ri.idx) && b < len(pr.idx) {
		switch ca, cb := ri.idx[a], pr.idx[b]; {
		case ca < cb:
			out.push(ca, ri.cell(a))
			a++
		case cb < ca:
			out.push(cb, d.mul(pr.cell(b)))
			b++
		default:
			var v rat
			if ca == e {
				v = d.mul(pr.cell(b))
			} else {
				v = ri.cell(a).addMul(d, pr.cell(b))
			}
			if v.sign() != 0 {
				out.push(ca, v)
			}
			a++
			b++
		}
	}
	for ; a < len(ri.idx); a++ {
		out.push(ri.idx[a], ri.cell(a))
	}
	for ; b < len(pr.idx); b++ {
		out.push(pr.idx[b], d.mul(pr.cell(b)))
	}
	t.spare.idx, t.spare.val = out.idx, out.val
	if out.settle(t.spare.num[:0]); out.val == nil {
		t.spare.num = out.num
	}
	return out
}

// valueOf returns the value of symbol s in the current basic solution: its
// row constant when basic, 0 when nonbasic or not interned (RatModel.Value's
// rule for an absent symbol).
func (t *tableau) valueOf(s expr.Sym) rat {
	if id := t.idOf(s); id >= 0 && t.rowAt[id] >= 0 {
		return t.consts[t.rowAt[id]]
	}
	return ratZero
}

// value evaluates l at the current basic solution.
func (t *tableau) value(l expr.Lin) rat {
	v := ratInt(l.Const)
	for _, term := range l.Terms() {
		v = v.addMul(ratInt(term.Coeff), t.valueOf(term.Sym))
	}
	return v
}

// holds reports whether c holds at the current basic solution. An operator
// that addConstraint rejects never holds, so the search asserts such a
// literal and the rejection surfaces there.
func (t *tableau) holds(c expr.Constraint) bool {
	switch sign := t.value(c.L).sign(); c.Op {
	case expr.GE:
		return sign >= 0
	case expr.EQ:
		return sign == 0
	}
	return false
}

// heldLit returns the index of the first literal of clause that holds at
// the current basic solution, -1 when the solution violates the clause.
func (t *tableau) heldLit(clause Clause) int {
	for k, l := range clause {
		if t.holds(l.C) {
			return k
		}
	}
	return -1
}

// fractional returns the first k symbols, in symbol order, whose value in
// the current basic solution is not an integer.
func (t *tableau) fractional(k int) []Frac {
	var out []Frac
	for s := 0; s < len(t.varOf) && len(out) < k; s++ {
		if v := t.valueOf(expr.Sym(s)); !v.isInt() {
			floor, ok := v.floor()
			out = append(out, Frac{Sym: expr.Sym(s), Floor: floor, OK: ok && floor != math.MaxInt64})
		}
	}
	return out
}

// model extracts the current basic solution for the original variables.
func (t *tableau) model() RatModel {
	m := make(RatModel, len(t.varOf))
	for s, id := range t.varOf {
		if id >= 0 {
			m[expr.Sym(s)] = t.valueOf(expr.Sym(s)).toBig()
		}
	}
	return m
}

// intModel is model for a basic solution that fractional found integral.
func (t *tableau) intModel() (Model, error) {
	m := make(Model, len(t.varOf))
	for s, id := range t.varOf {
		if id < 0 {
			continue
		}
		v := t.valueOf(expr.Sym(s))
		if v.b != nil {
			return nil, fmt.Errorf("smt: value of symbol %d exceeds int64: %s", s, v.b)
		}
		m[expr.Sym(s)] = v.n
	}
	return m, nil
}
