package smt

import (
	"math"
	"math/big"
	"slices"
	"sort"

	"repro/internal/expr"
)

// The three things a search node did before it cost what it changes, moved
// here as the references the production paths are checked against (the
// dense_ref_test.go pattern); nothing outside the tests uses them.

// deepClone is the clone this package shipped before rows went copy-on-write:
// every non-zero is copied into two fresh slabs, each row capped at its own
// length so that growing one cannot run into the next, and the copy gets
// scratch of its own (the old clone dropped acc and spare for addGE and
// substitute to regrow). The copy has no open scope, and no row of it is
// stamped by one.
func (t *tableau) deepClone() *tableau {
	out := &tableau{
		varOf:    append([]int32(nil), t.varOf...),
		nextVar:  t.nextVar,
		nonbasic: append([]int(nil), t.nonbasic...),
		basic:    append([]int(nil), t.basic...),
		consts:   append([]rat(nil), t.consts...),
		rows:     make([]row, len(t.rows)),
		colAt:    append([]int32(nil), t.colAt...),
		rowAt:    append([]int32(nil), t.rowAt...),
		objC:     t.objC,
		x0:       t.x0,
		scratch:  new(scratch),
	}
	nnz := 0
	for i := range t.rows {
		nnz += len(t.rows[i].idx)
	}
	idx := make([]int32, nnz)
	for i := range t.rows {
		r := &t.rows[i]
		n := copy(idx, r.idx)
		out.rows[i] = row{idx: idx[:n:n], sig: r.sig}
		if r.val == nil {
			out.rows[i].num = slices.Clone(r.num)
		} else {
			out.rows[i].val = slices.Clone(r.val)
		}
		idx = idx[n:]
	}
	if t.objA != nil {
		out.objA = append([]rat(nil), t.objA...)
	}
	return out
}

// holdsRational evaluates a constraint under a rational model, literal by
// literal in math/big: what checkClausesRec called before tableau.holds.
func holdsRational(c expr.Constraint, m RatModel) (bool, error) {
	acc := new(big.Rat).SetInt64(c.L.Const)
	term := new(big.Rat)
	for _, t := range c.L.Terms() {
		term.SetInt64(t.Coeff)
		term.Mul(term, m.Value(t.Sym))
		acc.Add(acc, term)
	}
	switch c.Op {
	case expr.GE:
		return acc.Sign() >= 0, nil
	case expr.EQ:
		return acc.Sign() == 0, nil
	default:
		return false, nil
	}
}

// branchPick is the scan branchAndBound ran over the model map: the smallest
// fractional symbol, its floor by ratFloor, and whether both branching bounds
// fit int64. The symbol is NoSym when the model is integral.
func branchPick(rm RatModel) Frac {
	frac, fracVal := expr.NoSym, (*big.Rat)(nil)
	for sym, v := range rm {
		if !v.IsInt() {
			if frac == expr.NoSym || sym < frac {
				frac = sym
				fracVal = v
			}
		}
	}
	if frac == expr.NoSym {
		return Frac{Sym: expr.NoSym}
	}
	floor, ok := ratFloor(fracVal)
	return Frac{Sym: frac, Floor: floor, OK: ok && floor != math.MaxInt64}
}

// probePicks is the collection schema's probeBounds made from the same map:
// every fractional symbol, sorted, cut to the first k, floors by Euclidean
// big.Int.Div.
func probePicks(rm RatModel, k int) []Frac {
	var fracs []expr.Sym
	for s, v := range rm {
		if !v.IsInt() {
			fracs = append(fracs, s)
		}
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i] < fracs[j] })
	if len(fracs) > k {
		fracs = fracs[:k]
	}
	var out []Frac
	for _, s := range fracs {
		f := new(big.Int).Div(rm[s].Num(), rm[s].Denom())
		if !f.IsInt64() || f.Int64() == math.MaxInt64 {
			out = append(out, Frac{Sym: s})
			continue
		}
		out = append(out, Frac{Sym: s, Floor: f.Int64(), OK: true})
	}
	return out
}
