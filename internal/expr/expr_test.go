package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTableIntern(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("n")
	b := tab.Intern("t")
	if a == b {
		t.Fatalf("distinct names interned to same symbol %v", a)
	}
	if got := tab.Intern("n"); got != a {
		t.Errorf("re-interning n: got %v want %v", got, a)
	}
	if got := tab.Lookup("t"); got != b {
		t.Errorf("Lookup(t) = %v, want %v", got, b)
	}
	if got := tab.Lookup("missing"); got != NoSym {
		t.Errorf("Lookup(missing) = %v, want NoSym", got)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if tab.Name(a) != "n" || tab.Name(b) != "t" {
		t.Errorf("Name mismatch: %q %q", tab.Name(a), tab.Name(b))
	}
}

func TestTableZeroValue(t *testing.T) {
	var tab Table
	if got := tab.Lookup("x"); got != NoSym {
		t.Errorf("zero-value Lookup = %v, want NoSym", got)
	}
	s := tab.Intern("x")
	if got := tab.Lookup("x"); got != s {
		t.Errorf("zero-value Intern then Lookup = %v, want %v", got, s)
	}
}

func TestLinArithmetic(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	y := tab.Intern("y")

	l := NewLin(3)
	if err := l.AddTerm(x, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTerm(y, -1); err != nil {
		t.Fatal(err)
	}
	// l = 2x - y + 3
	val := func(s Sym) int64 {
		if s == x {
			return 5
		}
		return 4
	}
	got, err := l.Eval(val)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*5-4+3 {
		t.Errorf("Eval = %d, want %d", got, 2*5-4+3)
	}

	m := Var(y)
	if err := m.AddScaled(l, 2); err != nil {
		t.Fatal(err)
	}
	// m = y + 2(2x - y + 3) = 4x - y + 6
	gm, err := m.Eval(val)
	if err != nil {
		t.Fatal(err)
	}
	if gm != 4*5-4+6 {
		t.Errorf("AddScaled Eval = %d, want %d", gm, 4*5-4+6)
	}
}

func TestAddTermCancellation(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	l := Var(x)
	if err := l.AddTerm(x, -1); err != nil {
		t.Fatal(err)
	}
	if !l.IsConst() {
		t.Errorf("x - x should be constant, got %v", l.Terms())
	}
}

func TestSubstitute(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	y := tab.Intern("y")
	z := tab.Intern("z")

	l := Term(x, 3) // 3x
	if err := l.AddTerm(y, 1); err != nil {
		t.Fatal(err)
	}
	// substitute x := 2z + 1  ->  6z + y + 3
	repl := Term(z, 2)
	if err := repl.AddConst(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Substitute(x, repl); err != nil {
		t.Fatal(err)
	}
	if c := l.Coeff(z); c != 6 {
		t.Errorf("coeff z = %d, want 6", c)
	}
	if c := l.Coeff(y); c != 1 {
		t.Errorf("coeff y = %d, want 1", c)
	}
	if l.Const != 3 {
		t.Errorf("const = %d, want 3", l.Const)
	}
	if c := l.Coeff(x); c != 0 {
		t.Errorf("coeff x = %d, want 0", c)
	}
}

func TestOverflowDetection(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	l := Term(x, math.MaxInt64)
	if err := l.AddTerm(x, 1); err == nil {
		t.Error("expected overflow error adding to MaxInt64 coefficient")
	}
	m := NewLin(math.MaxInt64)
	if err := m.AddConst(1); err == nil {
		t.Error("expected overflow error on constant")
	}
	k := Term(x, math.MaxInt64/2+1)
	if err := k.AddScaled(k.Clone(), 2); err == nil {
		t.Error("expected overflow error on AddScaled")
	}
}

func TestConstraintBuilders(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	y := tab.Intern("y")
	val := func(s Sym) int64 {
		if s == x {
			return 7
		}
		return 3
	}

	ge, err := Ge(Var(x), Var(y)) // x >= y
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ge.Holds(val)
	if err != nil || !ok {
		t.Errorf("x>=y under x=7,y=3: ok=%v err=%v", ok, err)
	}

	le, err := Le(Var(x), Var(y)) // x <= y
	if err != nil {
		t.Fatal(err)
	}
	ok, err = le.Holds(val)
	if err != nil || ok {
		t.Errorf("x<=y under x=7,y=3 should fail: ok=%v err=%v", ok, err)
	}

	eq, err := Eq(Var(x), Var(y))
	if err != nil {
		t.Fatal(err)
	}
	ok, err = eq.Holds(val)
	if err != nil || ok {
		t.Errorf("x==y under x=7,y=3 should fail: ok=%v err=%v", ok, err)
	}
}

func TestNegate(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	c, err := Ge(Var(x), NewLin(5)) // x >= 5
	if err != nil {
		t.Fatal(err)
	}
	neg, err := c.Negate() // x <= 4
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v <= 10; v++ {
		val := func(Sym) int64 { return v }
		a, _ := c.Holds(val)
		b, _ := neg.Holds(val)
		if a == b {
			t.Errorf("x=%d: constraint and negation both %v", v, a)
		}
	}

	eq := EQZero(Var(x))
	if _, err := eq.Negate(); err == nil {
		t.Error("negating an equality should error")
	}
}

func TestString(t *testing.T) {
	tab := NewTable()
	b0 := tab.Intern("b0")
	tt := tab.Intern("t")
	f := tab.Intern("f")

	// b0 - 2t - 1 + f >= 0  (the guard b0 >= 2t+1-f)
	l := Var(b0)
	if err := l.AddTerm(tt, -2); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTerm(f, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.AddConst(-1); err != nil {
		t.Fatal(err)
	}
	got := GEZero(l).String(tab)
	want := "b0 - 2*t + f - 1 >= 0"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if s := NewLin(0).String(nil); s != "0" {
		t.Errorf("zero Lin String = %q, want 0", s)
	}
}

// Property: Add then Sub of the same expression is identity (on evaluation).
func TestQuickAddSubIdentity(t *testing.T) {
	tab := NewTable()
	syms := []Sym{tab.Intern("a"), tab.Intern("b"), tab.Intern("c")}
	prop := func(ca, cb, cc int8, k int8, va, vb, vc int8) bool {
		l := Lin{}
		_ = l.AddTerm(syms[0], int64(ca))
		_ = l.AddTerm(syms[1], int64(cb))
		_ = l.AddTerm(syms[2], int64(cc))
		_ = l.AddConst(int64(k))
		orig := l.Clone()
		other := Term(syms[0], int64(vb))
		_ = other.AddConst(int64(vc))
		if err := l.Add(other); err != nil {
			return true // overflow paths are allowed to bail
		}
		if err := l.Sub(other); err != nil {
			return true
		}
		vals := []int64{int64(va), int64(vb), int64(vc)}
		val := func(s Sym) int64 { return vals[int(s)] }
		g1, err1 := l.Eval(val)
		g2, err2 := orig.Eval(val)
		return err1 == nil && err2 == nil && g1 == g2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Negate flips Holds for GE constraints over small integer points.
func TestQuickNegateFlips(t *testing.T) {
	tab := NewTable()
	x := tab.Intern("x")
	y := tab.Intern("y")
	prop := func(cx, cy, k int8, vx, vy int8) bool {
		l := Term(x, int64(cx))
		_ = l.AddTerm(y, int64(cy))
		_ = l.AddConst(int64(k))
		c := GEZero(l)
		neg, err := c.Negate()
		if err != nil {
			return false
		}
		vals := map[Sym]int64{x: int64(vx), y: int64(vy)}
		val := func(s Sym) int64 { return vals[s] }
		a, err1 := c.Holds(val)
		b, err2 := neg.Holds(val)
		return err1 == nil && err2 == nil && a != b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestTableTruncate pins the backtracking contract the incremental schema
// walker relies on: truncation frees ids for reuse, so re-interning after a
// truncate assigns the same dense ids a fresh walk would, and truncated
// names are genuinely gone from the index.
func TestTableTruncate(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("ta")
	tab.Intern("tb")
	tab.Intern("tc")
	if tab.Len() != 3 {
		t.Fatalf("len = %d, want 3", tab.Len())
	}

	tab.Truncate(1)
	if tab.Len() != 1 {
		t.Fatalf("after truncate: len = %d, want 1", tab.Len())
	}
	if got := tab.Lookup("tb"); got != NoSym {
		t.Errorf("Lookup(tb) = %v after truncate, want NoSym", got)
	}
	if got := tab.Lookup("tc"); got != NoSym {
		t.Errorf("Lookup(tc) = %v after truncate, want NoSym", got)
	}
	if got := tab.Lookup("ta"); got != a {
		t.Errorf("Lookup(ta) = %v, want %v (survivors keep their ids)", got, a)
	}

	// Re-interning in a different order reuses the freed ids densely: the id
	// of a name is a function of intern order from the truncation point, not
	// of the discarded history.
	c2 := tab.Intern("tc")
	b2 := tab.Intern("tb")
	if c2 != Sym(1) || b2 != Sym(2) {
		t.Errorf("re-intern ids = %v, %v, want 1, 2", c2, b2)
	}
	if tab.Name(c2) != "tc" || tab.Name(b2) != "tb" {
		t.Errorf("names = %q, %q, want tc, tb", tab.Name(c2), tab.Name(b2))
	}

	// Out-of-range arguments clamp: beyond the length is a no-op, negative
	// empties the table.
	tab.Truncate(99)
	if tab.Len() != 3 {
		t.Errorf("truncate beyond len changed table to %d", tab.Len())
	}
	tab.Truncate(-5)
	if tab.Len() != 0 {
		t.Errorf("negative truncate left len %d, want 0", tab.Len())
	}
	if tab.Intern("ta") != Sym(0) {
		t.Error("intern after full truncate did not restart at id 0")
	}
}

// TestEvalIndependentOfTermOrder: Eval's result is the value of the
// expression whenever that value fits int64, however the partial sums run,
// and an error only when the value itself does not fit. Over a coefficient
// map, MaxInt64·x − y + 1 at x = y = 1 overflowed or not by map order.
func TestEvalIndependentOfTermOrder(t *testing.T) {
	tab := NewTable()
	x, y := tab.Intern("x"), tab.Intern("y")
	l, err := LinOf(1, LinTerm{Sym: x, Coeff: math.MaxInt64}, LinTerm{Sym: y, Coeff: -1})
	if err != nil {
		t.Fatal(err)
	}
	over, err := LinOf(1, LinTerm{Sym: x, Coeff: math.MaxInt64}, LinTerm{Sym: y, Coeff: 1})
	if err != nil {
		t.Fatal(err)
	}
	one := func(Sym) int64 { return 1 }
	for i := 0; i < 200; i++ {
		if v, err := l.Eval(one); err != nil || v != math.MaxInt64 {
			t.Fatalf("call %d: Eval = %d, %v; want %d", i, v, err, int64(math.MaxInt64))
		}
		if v, err := over.Eval(one); err == nil {
			t.Fatalf("call %d: Eval of a value past MaxInt64 = %d, want an overflow error", i, v)
		}
	}
}

// TestFailedMergeLeavesLinUnchanged: AddScaled, Add, Sub and Substitute
// that overflow on some term leave the expression exactly as it was. Over a
// coefficient map they had already written the terms the map yielded before
// the overflowing one (Substitute had always removed the substituted term).
func TestFailedMergeLeavesLinUnchanged(t *testing.T) {
	tab := NewTable()
	s, x, y := tab.Intern("s"), tab.Intern("x"), tab.Intern("y")
	orig, err := LinOf(5, LinTerm{Sym: s, Coeff: 2}, LinTerm{Sym: x, Coeff: 1}, LinTerm{Sym: y, Coeff: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	other, err := LinOf(1, LinTerm{Sym: x, Coeff: 1}, LinTerm{Sym: y, Coeff: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]func(*Lin) error{
		"AddScaled":  func(l *Lin) error { return l.AddScaled(other, 1) },
		"Add":        func(l *Lin) error { return l.Add(other) },
		"Sub":        func(l *Lin) error { return l.Sub(other.Neg()) },
		"Substitute": func(l *Lin) error { return l.Substitute(s, other) },
	}
	for name, op := range ops {
		for i := 0; i < 200; i++ {
			l := orig.Clone()
			if err := op(&l); err == nil {
				t.Fatalf("%s: no overflow error", name)
			}
			if l.Const != orig.Const || !slices.Equal(l.Terms(), orig.Terms()) {
				t.Fatalf("%s, call %d: failed merge left %s, want %s", name, i, l.String(tab), orig.String(tab))
			}
		}
	}
}

// TestPlusMatchesCloneAddTerm holds Plus against the Clone + AddTerm +
// AddConst sequence it replaces, on random forms with inserts, updates,
// cancellations and constant-only calls: equal result, exactly sized
// storage, the argument untouched, and an error exactly where the sequence
// fails.
func TestPlusMatchesCloneAddTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := []int64{-2, -1, 1, 2, 7, math.MaxInt64, math.MinInt64}
	for iter := 0; iter < 5000; iter++ {
		var l Lin
		for k := rng.Intn(6); k > 0; k-- {
			_ = l.AddTerm(Sym(rng.Intn(8)), coeffs[rng.Intn(len(coeffs))])
		}
		l.Const = coeffs[rng.Intn(len(coeffs))]
		s, coeff, c := Sym(rng.Intn(8)), int64(0), int64(rng.Intn(5)-2)
		switch rng.Intn(3) {
		case 0:
			coeff = -l.Coeff(s) // cancels when s is present
		case 1:
			coeff = coeffs[rng.Intn(len(coeffs))]
		}
		kept := l.Clone()

		want := l.Clone()
		wantErr := want.AddTerm(s, coeff)
		if wantErr == nil {
			wantErr = want.AddConst(c)
		}
		got, err := l.Plus(s, coeff, c)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v.Plus(%d, %d, %d): error %v, want %v", l.terms, s, coeff, c, err, wantErr)
		}
		if !slices.Equal(l.terms, kept.terms) || l.Const != kept.Const {
			t.Fatalf("Plus changed its argument")
		}
		if err != nil {
			continue
		}
		if !slices.Equal(got.terms, want.terms) || got.Const != want.Const {
			t.Fatalf("%v.Plus(%d, %d, %d) = %v %+d, want %v %+d", l.terms, s, coeff, c, got.terms, got.Const, want.terms, want.Const)
		}
		if cap(got.terms) != len(got.terms) || (got.terms == nil) != (len(got.terms) == 0) {
			t.Fatalf("Plus storage %d of %d, want exactly sized (nil when empty)", len(got.terms), cap(got.terms))
		}
		if len(got.terms) > 0 && len(l.terms) > 0 && &got.terms[0] == &l.terms[0] {
			t.Fatalf("Plus shares storage with its argument")
		}
	}
}
