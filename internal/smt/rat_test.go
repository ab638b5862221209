package smt

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRatBasics(t *testing.T) {
	a := ratInt(3)
	b := rat{n: 1, d: 2}
	sum := a.add(b)
	if sum.String() != "7/2" {
		t.Errorf("3 + 1/2 = %s, want 7/2", sum)
	}
	if got := a.mul(b).String(); got != "3/2" {
		t.Errorf("3 * 1/2 = %s, want 3/2", got)
	}
	if got := a.div(b).String(); got != "6" {
		t.Errorf("3 / (1/2) = %s, want 6", got)
	}
	if got := a.sub(b).String(); got != "5/2" {
		t.Errorf("3 - 1/2 = %s, want 5/2", got)
	}
	if a.cmp(b) <= 0 {
		t.Error("3 should compare greater than 1/2")
	}
	if !a.isInt() || b.isInt() {
		t.Error("isInt misclassified")
	}
}

func TestRatZeroValue(t *testing.T) {
	var z rat
	if z.sign() != 0 {
		t.Error("zero value should have sign 0")
	}
	if got := z.add(ratInt(5)); got.cmp(ratInt(5)) != 0 {
		t.Errorf("0 + 5 = %s", got)
	}
	if got := z.mul(ratInt(5)); got.sign() != 0 {
		t.Errorf("0 * 5 = %s", got)
	}
	if !z.isInt() {
		t.Error("zero should be integral")
	}
}

func TestRatNormalization(t *testing.T) {
	r := rat{n: 4, d: -8}.norm()
	if r.n != -1 || r.d != 2 {
		t.Errorf("4/-8 normalized to %d/%d, want -1/2", r.n, r.d)
	}
}

func TestRatOverflowPromotion(t *testing.T) {
	huge := ratInt(math.MaxInt64)
	sum := huge.add(huge)
	want := new(big.Rat).SetInt64(math.MaxInt64)
	want.Add(want, want)
	if sum.toBig().Cmp(want) != 0 {
		t.Errorf("MaxInt64 + MaxInt64 = %s, want %s", sum, want.RatString())
	}
	prod := huge.mul(huge)
	wantP := new(big.Rat).SetInt64(math.MaxInt64)
	wantP.Mul(wantP, wantP)
	if prod.toBig().Cmp(wantP) != 0 {
		t.Errorf("MaxInt64^2 = %s, want %s", prod, wantP.RatString())
	}
	// Arithmetic continues to work in the promoted representation.
	back := prod.div(huge)
	if back.toBig().Cmp(new(big.Rat).SetInt64(math.MaxInt64)) != 0 {
		t.Errorf("MaxInt64^2 / MaxInt64 = %s", back)
	}
}

func TestRatNegMinInt64(t *testing.T) {
	r := ratInt(math.MinInt64)
	n := r.neg()
	want := new(big.Rat).SetInt64(math.MinInt64)
	want.Neg(want)
	if n.toBig().Cmp(want) != 0 {
		t.Errorf("neg(MinInt64) = %s, want %s", n, want.RatString())
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero should panic")
		}
	}()
	_ = ratInt(1).div(ratZero)
}

// Property: rat arithmetic agrees with big.Rat on random small fractions.
func TestQuickRatMatchesBigRat(t *testing.T) {
	mk := func(n int16, d uint8) (rat, *big.Rat) {
		den := int64(d%31) + 1
		return rat{n: int64(n), d: den}.norm(), big.NewRat(int64(n), den)
	}
	prop := func(n1 int16, d1 uint8, n2 int16, d2 uint8, n3 int16, d3 uint8, op uint8) bool {
		a, ba := mk(n1, d1)
		b, bb := mk(n2, d2)
		c, bc := mk(n3, d3)
		var got rat
		want := new(big.Rat)
		switch op % 6 {
		case 0:
			got = a.add(b)
			want.Add(ba, bb)
		case 1:
			got = a.sub(b)
			want.Sub(ba, bb)
		case 2:
			got = a.mul(b)
			want.Mul(ba, bb)
		case 3:
			if bb.Sign() == 0 {
				return true
			}
			got = a.div(b)
			want.Quo(ba, bb)
		case 4:
			got = a.addMul(b, c)
			want.Add(ba, want.Mul(bb, bc))
		case 5:
			return a.cmp(b) == ba.Cmp(bb)
		}
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// canonical reports whether r is held the way every rat operation must
// leave its result: on the int64 lane with a positive denominator in lowest
// terms whenever numerator and denominator fit (MinInt64 counts as not
// fitting, since it cannot be negated), as a big.Rat only otherwise.
func canonical(r rat) bool {
	if r.b != nil {
		n, d := r.b.Num(), r.b.Denom()
		return !(n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64)
	}
	return r.n != math.MinInt64 && r.d > 0 && gcd64(abs64(r.n), r.d) == 1
}

// FuzzRatOps checks every rat operation against math/big on arbitrary int64
// operands, the overflow boundaries included: a silently wrapped product or
// sum in a pivot would flip a verdict with no decoder in between to notice.
// Operands are used both as given (ratInt-style, where MinInt64 can sit on
// the int64 lane) and as normalized fractions.
func FuzzRatOps(f *testing.F) {
	edges := []int64{0, 1, -1, 2, 3, 1 << 31, -(1 << 31), 1<<31 + 1, 1 << 32, 1 << 62, -(1 << 62),
		1<<62 + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 3037000500, -3037000499, 6, 10, 15}
	for i, a := range edges {
		b, c := edges[(i+7)%len(edges)], edges[(i+13)%len(edges)]
		f.Add(a, int64(1), b, int64(1), c, int64(1))
		f.Add(a, c, b, a, c, b)
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd, cn, cd int64) {
		mk := func(n, d int64) (rat, *big.Rat) {
			switch d {
			case 0:
				// The zero value, whose denominator field is 0, means 0.
				return rat{}, new(big.Rat)
			case 1:
				return ratInt(n), new(big.Rat).SetInt64(n)
			}
			return rat{n: n, d: d}.norm(), new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
		}
		a, ba := mk(an, ad)
		b, bb := mk(bn, bd)
		c, bc := mk(cn, cd)
		check := func(op string, got rat, want *big.Rat) {
			t.Helper()
			if got.toBig().Cmp(want) != 0 {
				t.Errorf("%s(%s, %s, %s) = %s, want %s", op, a, b, c, got, want.RatString())
			}
			if !canonical(got) {
				t.Errorf("%s(%s, %s, %s) = %s is not canonical: %+v", op, a, b, c, got, got)
			}
			if got.sign() != want.Sign() {
				t.Errorf("%s(%s, %s, %s): sign %d, want %d", op, a, b, c, got.sign(), want.Sign())
			}
		}
		check("add", a.add(b), new(big.Rat).Add(ba, bb))
		check("sub", a.sub(b), new(big.Rat).Sub(ba, bb))
		check("mul", a.mul(b), new(big.Rat).Mul(ba, bb))
		check("neg", a.neg(), new(big.Rat).Neg(ba))
		check("addMul", a.addMul(b, c), new(big.Rat).Add(ba, new(big.Rat).Mul(bb, bc)))
		if bb.Sign() != 0 {
			check("div", a.div(b), new(big.Rat).Quo(ba, bb))
		}
		if got, want := a.cmp(b), ba.Cmp(bb); got != want {
			t.Errorf("cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := b.cmp(c), bb.Cmp(bc); got != want {
			t.Errorf("cmp(%s, %s) = %d, want %d", b, c, got, want)
		}
	})
}

// TestRatMinInt64EdgeCases pins the MinInt64 hazards found in review: the
// fast int64 path cannot represent -MinInt64, so these inputs must promote
// to big.Rat with correct values and signs.
func TestRatMinInt64EdgeCases(t *testing.T) {
	minI := int64(math.MinInt64)

	// MinInt64 * -1 must be +2^63, not MinInt64.
	got := ratInt(minI).mul(ratInt(-1))
	want := new(big.Rat).SetInt64(minI)
	want.Neg(want)
	if got.toBig().Cmp(want) != 0 {
		t.Errorf("MinInt64 * -1 = %s, want %s", got, want.RatString())
	}

	// 1 / MinInt64 is a small NEGATIVE number; sign must say so.
	inv := ratInt(1).div(ratInt(minI))
	if inv.sign() != -1 {
		t.Errorf("sign(1/MinInt64) = %d, want -1 (value %s)", inv.sign(), inv)
	}
	wantInv := big.NewRat(1, 1)
	wantInv.Quo(wantInv, new(big.Rat).SetInt64(minI))
	if inv.toBig().Cmp(wantInv) != 0 {
		t.Errorf("1/MinInt64 = %s, want %s", inv, wantInv.RatString())
	}

	// Normalizing n/MinInt64 must not leave a negative denominator behind.
	r := rat{n: 3, d: minI}.norm()
	if r.sign() != -1 {
		t.Errorf("sign(3/MinInt64) = %d, want -1", r.sign())
	}
	if r.cmp(ratZero) != -1 {
		t.Errorf("3/MinInt64 should compare below zero")
	}

	// Addition landing exactly on MinInt64 is representable and must be exact.
	half := ratInt(math.MinInt64 / 2)
	sum := half.add(half)
	if sum.toBig().Cmp(new(big.Rat).SetInt64(minI)) != 0 {
		t.Errorf("-2^62 + -2^62 = %s, want MinInt64", sum)
	}
	// ... and further arithmetic on it stays correct.
	neg := sum.neg()
	if neg.toBig().Cmp(want) != 0 {
		t.Errorf("neg(MinInt64) = %s, want %s", neg, want.RatString())
	}
}
