package smt

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/expr"
)

// TestRatFloor pins the floor computation branch-and-bound splits on,
// including the overflow guard: a rational whose floor does not fit in an
// int64 must be reported as unrepresentable, never silently wrapped (the
// wrapped value used to become a branching bound, corrupting the search).
func TestRatFloor(t *testing.T) {
	cases := []struct {
		num, den int64
		floor    int64
		ok       bool
	}{
		{7, 2, 3, true},
		{-7, 2, -4, true},
		{4, 1, 4, true},
		{-4, 1, -4, true},
		{0, 5, 0, true},
		{math.MaxInt64, 1, math.MaxInt64, true},
		{math.MinInt64, 1, math.MinInt64, true},
		{-1, 3, -1, true},
		{math.MaxInt64, 2, math.MaxInt64 / 2, true},
		{math.MinInt64 + 1, 2, math.MinInt64 / 2, true},
	}
	for _, c := range cases {
		f, ok := ratFloor(big.NewRat(c.num, c.den))
		if ok != c.ok || f != c.floor {
			t.Errorf("ratFloor(%d/%d) = %d, %v; want %d, %v", c.num, c.den, f, ok, c.floor, c.ok)
		}
		// The cell-side floor the basis readers use, on whichever lane the
		// value is held.
		if f, ok := fromBig(big.NewRat(c.num, c.den)).floor(); ok != c.ok || f != c.floor {
			t.Errorf("rat(%d/%d).floor() = %d, %v; want %d, %v", c.num, c.den, f, ok, c.floor, c.ok)
		}
	}
	if f, ok := (rat{}).floor(); !ok || f != 0 {
		t.Errorf("zero-value rat floor = %d, %v; want 0, true", f, ok)
	}

	// (5*2^62 + 1) / 2: fractional, floor = 5*2^61 > MaxInt64.
	huge := new(big.Rat).SetFrac(
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(5), 62), big.NewInt(1)),
		big.NewInt(2))
	if _, ok := ratFloor(huge); ok {
		t.Errorf("ratFloor(%s) reported ok, want overflow", huge)
	}
	if _, ok := ratFloor(new(big.Rat).Neg(huge)); ok {
		t.Errorf("ratFloor(-%s) reported ok, want overflow", huge)
	}
	if _, ok := fromBig(huge).floor(); ok {
		t.Errorf("rat(%s).floor() reported ok, want overflow", huge)
	}
}

// TestIntegerHugeFloorUnknown is the end-to-end regression for the int64
// wraparound: {2x - 5y - 1 = 0, y >= 2^62} has the unique rational vertex
// y = 2^62, x = (5*2^62+1)/2, so branch-and-bound's first split is on x,
// whose floor (5*2^61) exceeds MaxInt64. The old code wrapped that floor
// into a negative branching bound; the fixed search must surface Unknown
// (the instance is integer-satisfiable, but only at values no int64 model
// can represent).
func TestIntegerHugeFloorUnknown(t *testing.T) {
	tab := expr.NewTable()
	x := tab.Intern("hx")
	y := tab.Intern("hy")

	l := expr.NewLin(-1)
	if err := l.AddTerm(x, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTerm(y, -5); err != nil {
		t.Fatal(err)
	}
	ge, err := expr.Ge(expr.Var(y), expr.NewLin(1<<62))
	if err != nil {
		t.Fatal(err)
	}

	s := NewSolver(tab)
	s.Assert(expr.Constraint{L: l, Op: expr.EQ})
	s.Assert(ge)

	st, rm, err := s.CheckRational()
	if err != nil {
		t.Fatal(err)
	}
	if st != Sat {
		t.Fatalf("rational relaxation: %v, want sat", st)
	}
	if rm[x].IsInt() {
		t.Fatalf("x = %s is integral; the instance no longer exercises the floor overflow", rm[x])
	}

	ist, m, err := s.CheckInteger(0)
	if err != nil {
		t.Fatal(err)
	}
	if ist != Unknown {
		t.Fatalf("CheckInteger = %v (model %v), want Unknown: no int64 model exists and the floor overflows", ist, m)
	}
}
