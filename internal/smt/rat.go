package smt

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// rat is an exact rational number optimized for the small values that
// dominate simplex tableaus: it stores an int64 numerator/denominator pair
// and transparently promotes to big.Rat when an operation would overflow.
// The zero value is 0.
//
// Invariant: when b == nil, d > 0 and gcd(|n|, d) == 1 (or n == 0 and d == 1).
type rat struct {
	n, d int64
	b    *big.Rat
}

func ratInt(v int64) rat { return rat{n: v, d: 1} }

var ratZero = rat{n: 0, d: 1}

func (r rat) norm() rat {
	if r.b != nil {
		return r
	}
	if r.d == 0 {
		// Only reachable via the zero value; treat as 0.
		return ratZero
	}
	// MinInt64 cannot be negated or safely abs'd in int64; promote.
	if r.n == math.MinInt64 || r.d == math.MinInt64 {
		return rat{b: big.NewRat(r.n, r.d)}
	}
	if r.d == 1 {
		return r
	}
	if r.d < 0 {
		r.n, r.d = -r.n, -r.d
	}
	g := gcd64(abs64(r.n), r.d)
	if g > 1 {
		r.n /= g
		r.d /= g
	}
	return r
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func (r rat) toBig() *big.Rat {
	if r.b != nil {
		return r.b
	}
	d := r.d
	if d == 0 {
		d = 1
	}
	return big.NewRat(r.n, d)
}

func fromBig(b *big.Rat) rat {
	if b.Num().IsInt64() && b.Denom().IsInt64() {
		return rat{n: b.Num().Int64(), d: b.Denom().Int64()}.norm()
	}
	return rat{b: new(big.Rat).Set(b)}
}

// mul128 returns the signed 128-bit product of a and b as a signed high word
// and an unsigned low word, derived from the unsigned product.
func mul128(a, b int64) (int64, uint64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return int64(hi), lo
}

// mul64 returns a*b and whether the product fits in int64: the high word
// must be the sign extension of the low one. No hardware divide, and no
// MinInt64 special case.
func mul64(a, b int64) (int64, bool) {
	hi, lo := mul128(a, b)
	return int64(lo), hi == int64(lo)>>63
}

// add64 returns a+b and whether the sum fits in int64.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

// fastOK reports whether both operands can go through the int64 fast path:
// MinInt64 components break abs/gcd/negation and must take the big path.
func fastOK(r, o rat) bool {
	return r.b == nil && o.b == nil &&
		r.n != math.MinInt64 && r.d != math.MinInt64 &&
		o.n != math.MinInt64 && o.d != math.MinInt64
}

func (r rat) add(o rat) rat {
	if fastOK(r, o) {
		rd, od := r.d, o.d
		if rd == 0 {
			rd = 1
		}
		if od == 0 {
			od = 1
		}
		// n = r.n*od + o.n*rd ; d = rd*od
		x, ok1 := mul64(r.n, od)
		y, ok2 := mul64(o.n, rd)
		d, ok3 := mul64(rd, od)
		if n, ok4 := add64(x, y); ok1 && ok2 && ok3 && ok4 {
			return rat{n: n, d: d}.norm()
		}
	}
	return fromBig(new(big.Rat).Add(r.toBig(), o.toBig()))
}

func (r rat) sub(o rat) rat { return r.add(o.neg()) }

func (r rat) neg() rat {
	if r.b == nil {
		if r.n == -9223372036854775808 { // -MinInt64 overflows
			return fromBig(new(big.Rat).Neg(r.toBig()))
		}
		out := r
		out.n = -out.n
		return out.norm()
	}
	return fromBig(new(big.Rat).Neg(r.b))
}

func (r rat) mul(o rat) rat {
	if fastOK(r, o) {
		rd, od := r.d, o.d
		if rd == 0 {
			rd = 1
		}
		if od == 0 {
			od = 1
		}
		if rd == 1 && od == 1 {
			if n, ok := mul64(r.n, o.n); ok {
				return rat{n: n, d: 1}.norm()
			}
		}
		// Cross-reduce before multiplying to keep magnitudes small.
		g1 := gcd64(abs64(r.n), od)
		g2 := gcd64(abs64(o.n), rd)
		n, ok1 := mul64(r.n/g1, o.n/g2)
		d, ok2 := mul64(od/g1, rd/g2)
		if ok1 && ok2 {
			return rat{n: n, d: d}.norm()
		}
	}
	return fromBig(new(big.Rat).Mul(r.toBig(), o.toBig()))
}

// addMul returns r + d·x, the one operation a pivot applies to every cell it
// touches. When all three are int64 integers (denominator 1 — nearly every
// cell of a threshold-automaton encoding) it is one overflow-checked multiply
// and one checked add, with no gcd; anything else, and any overflow, takes
// the general exact path.
func (r rat) addMul(d, x rat) rat {
	if r.b == nil && d.b == nil && x.b == nil && r.d <= 1 && d.d <= 1 && x.d <= 1 {
		if p, ok := mul64(d.n, x.n); ok {
			// MinInt64 is never held on the int64 lane (see norm).
			if s, ok := add64(r.n, p); ok && s != math.MinInt64 {
				return rat{n: s, d: 1}
			}
		}
	}
	return r.add(d.mul(x))
}

func (r rat) div(o rat) rat {
	if o.sign() == 0 {
		// Division by zero is a programming error in the simplex core.
		panic("smt: rational division by zero")
	}
	inv := o
	if o.b == nil && o.n != math.MinInt64 && o.d != math.MinInt64 {
		od := o.d
		if od == 0 {
			od = 1
		}
		inv = rat{n: od, d: o.n}.norm()
	} else {
		inv = fromBig(new(big.Rat).Inv(o.toBig()))
	}
	return r.mul(inv)
}

func (r rat) sign() int {
	if r.b != nil {
		return r.b.Sign()
	}
	switch {
	case r.n > 0:
		return 1
	case r.n < 0:
		return -1
	default:
		return 0
	}
}

// cmp returns the sign of r - o. On the int64 lane it compares the 128-bit
// cross products r.n·o.d and o.n·r.d, so it never allocates, whatever the
// magnitudes.
func (r rat) cmp(o rat) int {
	if r.b != nil || o.b != nil {
		return r.toBig().Cmp(o.toBig())
	}
	rd, od := r.d, o.d
	if rd == 0 {
		rd = 1
	}
	if od == 0 {
		od = 1
	}
	lhi, llo := mul128(r.n, od)
	rhi, rlo := mul128(o.n, rd)
	if c := cmp.Compare(lhi, rhi); c != 0 {
		return c
	}
	return cmp.Compare(llo, rlo)
}

func (r rat) isInt() bool {
	if r.b != nil {
		return r.b.IsInt()
	}
	return r.d == 1 || r.n == 0
}

// floor returns the largest integer not above r and whether it fits int64.
func (r rat) floor() (int64, bool) {
	if r.b != nil {
		return ratFloor(r.b)
	}
	q := r.n / max(r.d, 1) // truncates toward zero
	if r.n < 0 && !r.isInt() {
		q--
	}
	return q, true
}

func (r rat) String() string {
	if r.b != nil {
		return r.b.RatString()
	}
	d := r.d
	if d == 0 {
		d = 1
	}
	if d == 1 {
		return fmt.Sprintf("%d", r.n)
	}
	return fmt.Sprintf("%d/%d", r.n, d)
}
