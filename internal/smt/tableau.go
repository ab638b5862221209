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
type tableau struct {
	varOf   []int32 // symbol -> variable id, -1 where the symbol is not interned
	nextVar int

	nonbasic []int // variable ids of nonbasic columns
	basic    []int // variable ids of basic rows
	consts   []rat // row constants
	rows     []row // row coefficients over the nonbasic columns
	// own[i] reports that rows[i]'s storage is this tableau's alone.
	// clone shares every row with its source and leaves neither side owning
	// it; the first write to a row (take) copies it. A search node therefore
	// pays for the rows its pivots touch, not for the whole dictionary.
	own    []bool
	copied int // rows materialised by a first write since the last clone

	// colAt and rowAt locate a variable by id: its nonbasic column or its
	// basic row, -1 where it is not (both -1 once x0 has been dropped).
	colAt, rowAt []int32

	// phase-one objective (nil outside the initial solve), dense over the
	// nonbasic columns
	objA []rat
	objC rat
	x0   int // variable id of the auxiliary variable, -1 if absent

	*scratch
}

// scratch holds the buffers the kernel works in. They carry nothing between
// calls, so one set serves every tableau of a Solver (clone passes the
// pointer on) and is grown once per query rather than once per search node:
// acc is addGE's dense accumulator (all zero between calls), syms its sorted
// symbol list, spare the buffer substitute merges a rewritten row into.
type scratch struct {
	acc   []rat
	syms  []expr.Sym
	spare row
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

// clone returns a tableau that can be written without disturbing t, with
// room for extra more rows before an append reallocates. Headers, constants
// and the id tables are copied — O(rows + variables), mostly small integers;
// the rows' non-zeros are shared, and from here on neither side owns them
// (see own). rat values are immutable (an operation returns a new value and
// never writes through an operand's big.Rat), so sharing cells is safe.
func (t *tableau) clone(extra int) *tableau {
	clear(t.own)
	return &tableau{
		varOf:    slices.Clone(t.varOf),
		nextVar:  t.nextVar,
		nonbasic: slices.Clone(t.nonbasic),
		basic:    cloneGrow(t.basic, extra),
		consts:   cloneGrow(t.consts, extra),
		rows:     cloneGrow(t.rows, extra),
		own:      make([]bool, len(t.own), len(t.own)+extra),
		colAt:    cloneGrow(t.colAt, extra),
		rowAt:    cloneGrow(t.rowAt, extra),
		objA:     slices.Clone(t.objA),
		objC:     t.objC,
		x0:       t.x0,
		scratch:  t.scratch,
	}
}

// cloneGrow copies s into a slice with room for extra more elements.
func cloneGrow[T any](s []T, extra int) []T {
	return append(make([]T, 0, len(s)+extra), s...)
}

// take makes row i's storage this tableau's own before its first write.
func (t *tableau) take(i int) {
	if t.own[i] {
		return
	}
	r := &t.rows[i]
	r.idx = slices.Clone(r.idx)
	if r.val == nil {
		r.num = slices.Clone(r.num)
	} else {
		r.val = slices.Clone(r.val)
	}
	t.own[i] = true
	t.copied++
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
	t.newCol(id)
	return id
}

// addGE appends the row for L >= 0, rewriting basic variables through their
// current dictionary rows.
func (t *tableau) addGE(l expr.Lin) {
	// Intern symbols in symbol order, so the column layout is stable.
	// Ranging over the coefficient map here would randomize the layout per
	// run — and with it which column a degenerate phase one pivots x0 out
	// on and which optimal vertex the relaxation lands on, making solver
	// effort (and branch-and-bound paths) differ between identical solves.
	syms := t.syms[:0]
	for s := range l.Coeffs {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	t.syms = syms
	for len(t.acc) < len(t.nonbasic)+len(syms) {
		t.acc = append(t.acc, ratZero)
	}
	rowConst := ratInt(l.Const)
	for _, s := range syms {
		id := t.colFor(s)
		ar := ratInt(l.Coeffs[s])
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
	nr := row{idx: make([]int32, 0, nnz)}
	if ints {
		nr.num = make([]int64, 0, nnz)
	} else {
		nr.val = make([]rat, 0, nnz)
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
	t.own = append(t.own, true)
}

// addConstraint appends rows for a constraint (two for an equality).
func (t *tableau) addConstraint(c expr.Constraint) error {
	switch c.Op {
	case expr.GE:
		t.addGE(c.L)
	case expr.EQ:
		t.addGE(c.L)
		t.addGE(c.L.Neg())
	default:
		return fmt.Errorf("smt: unsupported constraint operator %v", c.Op)
	}
	return nil
}

// addX0 introduces the phase-one auxiliary variable with coefficient +1 in
// every row and the objective -x0, and returns its column.
func (t *tableau) addX0() int32 {
	t.x0 = t.newVar()
	c := t.newCol(t.x0)
	for i := range t.rows {
		t.take(i)
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
			t.rows = append(t.rows[:r], t.rows[r+1:]...)
			t.own = append(t.own[:r], t.own[r+1:]...)
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
		t.take(i)
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
	t.take(r)
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
// are merged into the spare buffer and copied back, so a row's own storage
// only ever grows to what fill-in has made it need; a row still shared with
// the tableau this one was cloned from is left alone and gets fresh storage.
// The merge runs on the int lane when both rows are there; the rat merge is
// its fallback, taken when either row is on val or an int merge overflows.
func (t *tableau) substitute(i int, d rat, e int32, pr *row) {
	ri := &t.rows[i]
	out, ok := t.mergeNum(ri, d.n, e, pr)
	if !ok {
		out = t.mergeVal(ri, d, e, pr)
	}
	if !t.own[i] {
		// First write to a shared row: the merge is its copy.
		ri.idx, ri.num, ri.val, t.own[i] = nil, nil, nil, true
		t.copied++
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
	for s, a := range l.Coeffs {
		v = v.addMul(ratInt(a), t.valueOf(s))
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
