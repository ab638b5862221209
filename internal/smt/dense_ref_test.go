package smt

import (
	"errors"

	"repro/internal/expr"
)

// denseTableau is the dense [][]rat simplex kernel this package shipped
// before its rows went sparse, moved here unchanged except for the step hook:
// every row is a full-width slice parallel to nonbasic, every loop visits
// every cell, and every update is an unfused add(mul()) with the
// subtract-and-take-the-sign comparison. It is the reference the production
// kernel is checked against cell for cell (TestDenseReference*); nothing
// outside the tests uses it.
type denseTableau struct {
	colOf   map[expr.Sym]int
	nextVar int

	nonbasic []int
	basic    []int
	consts   []rat
	coef     [][]rat

	objA []rat
	objC rat
	x0   int

	// step, when set, is called after each primitive the production kernel
	// also has (addX0, pivot, dropX0) so a test can mirror it.
	step func(kind string, e, r int)
	// x0Basic and x0RowDeleted count the degenerate phase-one endings seen.
	x0Basic, x0RowDeleted int
}

func newDenseTableau() *denseTableau {
	return &denseTableau{colOf: make(map[expr.Sym]int), x0: -1}
}

func (t *denseTableau) emit(kind string, e, r int) {
	if t.step != nil {
		t.step(kind, e, r)
	}
}

// denseCmp is the comparison the dense kernel used: the sign of a
// (possibly promoted) difference.
func denseCmp(a, b rat) int { return a.sub(b).sign() }

func (t *denseTableau) colFor(s expr.Sym) int {
	if id, ok := t.colOf[s]; ok {
		return id
	}
	id := t.nextVar
	t.nextVar++
	t.colOf[s] = id
	t.nonbasic = append(t.nonbasic, id)
	for i := range t.coef {
		t.coef[i] = append(t.coef[i], ratZero)
	}
	if t.objA != nil {
		t.objA = append(t.objA, ratZero)
	}
	return id
}

func (t *denseTableau) nonbasicColOf(id int) int {
	for j, v := range t.nonbasic {
		if v == id {
			return j
		}
	}
	return -1
}

func (t *denseTableau) basicRowOf(id int) int {
	for i, v := range t.basic {
		if v == id {
			return i
		}
	}
	return -1
}

func (t *denseTableau) addGE(l expr.Lin) {
	for _, term := range l.Terms() {
		t.colFor(term.Sym)
	}
	rowConst := ratInt(l.Const)
	row := make([]rat, len(t.nonbasic))
	for _, term := range l.Terms() {
		s, a := term.Sym, term.Coeff
		id := t.colOf[s]
		ar := ratInt(a)
		if j := t.nonbasicColOf(id); j >= 0 {
			row[j] = row[j].add(ar)
			continue
		}
		r := t.basicRowOf(id)
		rowConst = rowConst.add(ar.mul(t.consts[r]))
		for j := range t.coef[r] {
			row[j] = row[j].add(ar.mul(t.coef[r][j]))
		}
	}
	slack := t.nextVar
	t.nextVar++
	t.basic = append(t.basic, slack)
	t.consts = append(t.consts, rowConst)
	t.coef = append(t.coef, row)
}

func (t *denseTableau) solveFresh() (bool, int, error) {
	worst, worstRow := ratZero, -1
	for i, c := range t.consts {
		if denseCmp(c, worst) < 0 {
			worst = c
			worstRow = i
		}
	}
	if worstRow == -1 {
		return true, 0, nil
	}
	for i, c := range t.consts {
		if c.sign() < 0 && len(t.coef[i]) == 0 {
			return false, 0, nil
		}
	}

	t.x0 = t.nextVar
	t.nextVar++
	x0col := len(t.nonbasic)
	t.nonbasic = append(t.nonbasic, t.x0)
	for i := range t.coef {
		t.coef[i] = append(t.coef[i], ratInt(1))
	}
	t.objA = make([]rat, len(t.nonbasic))
	t.objA[x0col] = ratInt(-1)
	t.objC = ratZero
	t.emit("addX0", x0col, -1)

	t.pivot(x0col, worstRow)
	pivots := 1

	for {
		if pivots > maxPivots {
			return false, pivots, errPivotLimit
		}
		enter := -1
		for j, a := range t.objA {
			if a.sign() > 0 && (enter == -1 || t.nonbasic[j] < t.nonbasic[enter]) {
				enter = j
			}
		}
		if enter == -1 {
			feasible := t.objC.sign() == 0
			if feasible {
				if err := t.dropX0(); err != nil {
					return false, pivots, err
				}
			}
			t.objA = nil
			return feasible, pivots, nil
		}
		leave := -1
		var best rat
		for i, row := range t.coef {
			if row[enter].sign() >= 0 {
				continue
			}
			ratio := t.consts[i].div(row[enter].neg())
			if leave == -1 || denseCmp(ratio, best) < 0 ||
				(denseCmp(ratio, best) == 0 && t.basic[i] < t.basic[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave == -1 {
			return false, pivots, errors.New("smt: phase-one simplex unbounded")
		}
		t.pivot(enter, leave)
		pivots++
	}
}

func (t *denseTableau) dropX0() error {
	if t.x0 == -1 {
		return nil
	}
	if r := t.basicRowOf(t.x0); r >= 0 {
		t.x0Basic++
		col := -1
		for j, a := range t.coef[r] {
			if a.sign() != 0 {
				col = j
				break
			}
		}
		if col == -1 {
			t.x0RowDeleted++
			t.basic = append(t.basic[:r], t.basic[r+1:]...)
			t.consts = append(t.consts[:r], t.consts[r+1:]...)
			t.coef = append(t.coef[:r], t.coef[r+1:]...)
		} else {
			t.pivot(col, r)
		}
	}
	col := t.nonbasicColOf(t.x0)
	if col == -1 {
		if t.basicRowOf(t.x0) >= 0 {
			return errors.New("smt: failed to eliminate auxiliary variable")
		}
		t.x0 = -1
		t.emit("dropX0", -1, -1)
		return nil
	}
	t.nonbasic = append(t.nonbasic[:col], t.nonbasic[col+1:]...)
	for i := range t.coef {
		t.coef[i] = append(t.coef[i][:col], t.coef[i][col+1:]...)
	}
	if t.objA != nil {
		t.objA = append(t.objA[:col], t.objA[col+1:]...)
	}
	t.x0 = -1
	t.emit("dropX0", -1, -1)
	return nil
}

func (t *denseTableau) dualRestore() (bool, int, error) {
	pivots := 0
	for {
		if pivots > maxPivots {
			return false, pivots, errPivotLimit
		}
		leave := -1
		for i, c := range t.consts {
			if c.sign() < 0 && (leave == -1 || t.basic[i] < t.basic[leave]) {
				leave = i
			}
		}
		if leave == -1 {
			return true, pivots, nil
		}
		enter := -1
		for j, a := range t.coef[leave] {
			if a.sign() > 0 && (enter == -1 || t.nonbasic[j] < t.nonbasic[enter]) {
				enter = j
			}
		}
		if enter == -1 {
			return false, pivots, nil
		}
		t.pivot(enter, leave)
		pivots++
	}
}

func (t *denseTableau) pivot(e, r int) {
	row := t.coef[r]
	p := row[e]
	invNeg := ratInt(-1).div(p)

	leavingVar := t.basic[r]
	enteringVar := t.nonbasic[e]

	newConst := t.consts[r].mul(invNeg)
	newRow := make([]rat, len(row))
	for j := range row {
		if j == e {
			newRow[j] = ratInt(1).div(p)
		} else {
			newRow[j] = row[j].mul(invNeg)
		}
	}
	t.basic[r] = enteringVar
	t.nonbasic[e] = leavingVar
	t.consts[r] = newConst
	t.coef[r] = newRow

	for i := range t.coef {
		if i == r {
			continue
		}
		d := t.coef[i][e]
		if d.sign() == 0 {
			continue
		}
		t.consts[i] = t.consts[i].add(d.mul(newConst))
		ri := t.coef[i]
		for j := range ri {
			if j == e {
				ri[j] = d.mul(newRow[j])
			} else {
				ri[j] = ri[j].add(d.mul(newRow[j]))
			}
		}
	}
	if t.objA != nil {
		d := t.objA[e]
		if d.sign() != 0 {
			t.objC = t.objC.add(d.mul(newConst))
			for j := range t.objA {
				if j == e {
					t.objA[j] = d.mul(newRow[j])
				} else {
					t.objA[j] = t.objA[j].add(d.mul(newRow[j]))
				}
			}
		}
	}
	t.emit("pivot", e, r)
}
