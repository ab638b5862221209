// Package expr provides linear integer expressions and constraints over a
// shared symbol table. It is the common arithmetic substrate for threshold
// automata guards (internal/ta), the schema encoder (internal/schema) and the
// SMT core (internal/smt).
//
// All arithmetic is exact: coefficients are int64 and every operation that
// could overflow reports an error instead of wrapping.
package expr

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"sync"
)

// Sym identifies a symbol (variable) in a Table.
type Sym int

// NoSym is the zero value returned when a lookup fails.
const NoSym Sym = -1

// Table interns symbol names and assigns them dense indices. The zero value
// is ready to use. Tables are safe for concurrent use: the schema checker
// interns fresh encoding variables from parallel property checks.
type Table struct {
	mu    sync.RWMutex
	names []string
	index map[string]Sym
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{index: make(map[string]Sym)}
}

// Intern returns the symbol for name, creating it if necessary.
func (t *Table) Intern(name string) Sym {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index == nil {
		t.index = make(map[string]Sym)
	}
	if s, ok := t.index[name]; ok {
		return s
	}
	s := Sym(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = s
	return s
}

// Lookup returns the symbol for name, or NoSym if it has not been interned.
func (t *Table) Lookup(name string) Sym {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.index == nil {
		return NoSym
	}
	if s, ok := t.index[name]; ok {
		return s
	}
	return NoSym
}

// Name returns the name of s. It panics if s is out of range, which always
// indicates a programming error (symbols are only produced by Intern).
func (t *Table) Name(s Sym) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[s]
}

// Snapshot returns a new independent table containing the first n interned
// symbols of t (clamped to its current length). The schema encoder gives
// each per-schema solver a private snapshot for its fresh variables: symbol
// ids feed simplex pivoting order, so ids racing through a shared table
// would make solver effort depend on worker interleaving. With snapshots,
// identical encodings get identical ids regardless of concurrency — and the
// shared table is never grown by a solve.
func (t *Table) Snapshot(n int) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > len(t.names) {
		n = len(t.names)
	}
	if n < 0 {
		n = 0
	}
	nt := &Table{names: make([]string, n), index: make(map[string]Sym, n)}
	copy(nt.names, t.names[:n])
	for i, name := range nt.names {
		nt.index[name] = Sym(i)
	}
	return nt
}

// Truncate removes every symbol interned after the first n, so the next
// Intern reuses the freed ids. The incremental schema walker calls this when
// backtracking: symbols interned while exploring one subtree are discarded
// before a sibling subtree interns its own, which keeps the id assigned to
// any name a function of the tree path alone (ids feed simplex pivoting
// order, so leaking ids across siblings would make solver effort depend on
// visit history). Truncating below symbols still referenced by live
// expressions is a caller bug.
func (t *Table) Truncate(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(t.names) {
		return
	}
	for _, name := range t.names[n:] {
		delete(t.index, name)
	}
	t.names = t.names[:n]
}

// Len reports the number of interned symbols.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Names returns a copy of all interned names in symbol order.
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// LinTerm is one term Coeff·Sym of a linear expression.
type LinTerm struct {
	Sym   Sym
	Coeff int64
}

// Lin is a linear expression Const + Σ Coeff·Sym over its terms. The terms
// are kept sorted by symbol, each symbol at most once and never with a zero
// coefficient, so reading them (Terms) is a walk in symbol order and
// combining two expressions is a merge. The zero value is the constant 0.
// Copies of a Lin share its terms; use Clone before mutating a copy.
type Lin struct {
	terms []LinTerm
	Const int64
}

// NewLin returns the constant expression c.
func NewLin(c int64) Lin {
	return Lin{Const: c}
}

// Var returns the expression 1·s.
func Var(s Sym) Lin {
	return Lin{terms: []LinTerm{{Sym: s, Coeff: 1}}}
}

// Term returns the expression coeff·s.
func Term(s Sym, coeff int64) Lin {
	if coeff == 0 {
		return Lin{}
	}
	return Lin{terms: []LinTerm{{Sym: s, Coeff: coeff}}}
}

// LinOf returns c + Σ terms; a symbol named twice gets the sum of its
// coefficients.
func LinOf(c int64, terms ...LinTerm) (Lin, error) {
	l := NewLin(c)
	for _, t := range terms {
		if err := l.AddTerm(t.Sym, t.Coeff); err != nil {
			return Lin{}, err
		}
	}
	return l, nil
}

// Terms returns l's terms in symbol order. The slice is l's own: callers
// read it and never write it.
func (l Lin) Terms() []LinTerm { return l.terms }

// Clone returns a deep copy of l.
func (l Lin) Clone() Lin {
	return Lin{terms: slices.Clone(l.terms), Const: l.Const}
}

// search returns the position of s in l's terms, or where it would go, and
// whether it is there.
func (l Lin) search(s Sym) (int, bool) {
	lo, hi := 0, len(l.terms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.terms[m].Sym < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(l.terms) && l.terms[lo].Sym == s
}

// Coeff returns the coefficient of s (0 if absent).
func (l Lin) Coeff(s Sym) int64 {
	if i, ok := l.search(s); ok {
		return l.terms[i].Coeff
	}
	return 0
}

func addChecked(a, b int64) (int64, error) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, fmt.Errorf("expr: int64 overflow adding %d and %d", a, b)
	}
	return s, nil
}

func mulChecked(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, fmt.Errorf("expr: int64 overflow multiplying %d and %d", a, b)
	}
	return p, nil
}

// AddTerm adds coeff·s to l in place.
func (l *Lin) AddTerm(s Sym, coeff int64) error {
	if coeff == 0 {
		return nil
	}
	i, ok := l.search(s)
	if !ok {
		l.terms = slices.Insert(l.terms, i, LinTerm{Sym: s, Coeff: coeff})
		return nil
	}
	c, err := addChecked(l.terms[i].Coeff, coeff)
	if err != nil {
		return err
	}
	if c != 0 {
		l.terms[i].Coeff = c
	} else if l.terms = slices.Delete(l.terms, i, i+1); len(l.terms) == 0 {
		l.terms = nil
	}
	return nil
}

// Plus returns l + coeff·s + c as a new expression that shares nothing with
// l: one merge into storage sized exactly for the result (s is ignored when
// coeff is 0). It is Clone, AddTerm and AddConst without the second
// allocation AddTerm's insert makes.
func (l Lin) Plus(s Sym, coeff, c int64) (Lin, error) {
	k, err := addChecked(l.Const, c)
	if err != nil {
		return Lin{}, err
	}
	i, found, sum := len(l.terms), false, coeff
	if coeff != 0 {
		if i, found = l.search(s); found {
			if sum, err = addChecked(l.terms[i].Coeff, coeff); err != nil {
				return Lin{}, err
			}
		}
	}
	n := len(l.terms)
	switch {
	case coeff != 0 && !found:
		n++
	case found && sum == 0:
		n--
	}
	if n == 0 {
		return Lin{Const: k}, nil
	}
	out := append(make([]LinTerm, 0, n), l.terms[:i]...)
	if sum != 0 {
		out = append(out, LinTerm{Sym: s, Coeff: sum})
	}
	if found {
		i++
	}
	return Lin{terms: append(out, l.terms[i:]...), Const: k}, nil
}

// AddConst adds c to l's constant term in place.
func (l *Lin) AddConst(c int64) error {
	s, err := addChecked(l.Const, c)
	if err != nil {
		return err
	}
	l.Const = s
	return nil
}

// Add adds other to l in place; on error l is unchanged.
func (l *Lin) Add(other Lin) error {
	return l.AddScaled(other, 1)
}

// AddScaled adds k·other to l in place; on error l is unchanged.
func (l *Lin) AddScaled(other Lin, k int64) error {
	return l.addScaledSkip(-1, other, k)
}

// addScaledSkip is AddScaled with l's term at position skip dropped first
// (none when skip is -1). The terms are merged into fresh storage and
// committed only once every product and sum has fit int64.
func (l *Lin) addScaledSkip(skip int, other Lin, k int64) error {
	kc, err := mulChecked(other.Const, k)
	if err != nil {
		return err
	}
	c, err := addChecked(l.Const, kc)
	if err != nil {
		return err
	}
	if k == 0 {
		other.terms = nil
	}
	a, b := l.terms, other.terms
	out := make([]LinTerm, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if i == skip {
			i++
			continue
		}
		var t LinTerm
		switch {
		case j == len(b) || i < len(a) && a[i].Sym < b[j].Sym:
			t = a[i]
			i++
		case i == len(a) || b[j].Sym < a[i].Sym:
			p, err := mulChecked(b[j].Coeff, k)
			if err != nil {
				return err
			}
			t = LinTerm{Sym: b[j].Sym, Coeff: p}
			j++
		default:
			p, err := mulChecked(b[j].Coeff, k)
			if err == nil {
				p, err = addChecked(a[i].Coeff, p)
			}
			if err != nil {
				return err
			}
			t = LinTerm{Sym: a[i].Sym, Coeff: p}
			i++
			j++
		}
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = nil
	}
	l.terms, l.Const = out, c
	return nil
}

// Sub subtracts other from l in place; on error l is unchanged.
func (l *Lin) Sub(other Lin) error {
	return l.AddScaled(other, -1)
}

// Neg returns -l as a new expression.
func (l Lin) Neg() Lin {
	out := Lin{Const: -l.Const}
	if len(l.terms) > 0 {
		out.terms = make([]LinTerm, len(l.terms))
		for i, t := range l.terms {
			out.terms[i] = LinTerm{Sym: t.Sym, Coeff: -t.Coeff}
		}
	}
	return out
}

// IsConst reports whether l has no variable terms.
func (l Lin) IsConst() bool { return len(l.terms) == 0 }

// Eval evaluates l under the given valuation. It fails only when the value
// itself leaves int64: a partial sum that overflows on the way is finished
// exactly, so the outcome does not depend on the order of the terms.
func (l Lin) Eval(val func(Sym) int64) (int64, error) {
	acc := l.Const
	for _, t := range l.terms {
		p, err := mulChecked(t.Coeff, val(t.Sym))
		if err == nil {
			acc, err = addChecked(acc, p)
		}
		if err != nil {
			return l.evalBig(val)
		}
	}
	return acc, nil
}

// evalBig is Eval in math/big, for a valuation under which some product or
// partial sum leaves int64.
func (l Lin) evalBig(val func(Sym) int64) (int64, error) {
	acc := big.NewInt(l.Const)
	var p, v big.Int
	for _, t := range l.terms {
		acc.Add(acc, p.Mul(p.SetInt64(t.Coeff), v.SetInt64(val(t.Sym))))
	}
	if !acc.IsInt64() {
		return 0, fmt.Errorf("expr: int64 overflow evaluating to %s", acc)
	}
	return acc.Int64(), nil
}

// Substitute replaces every occurrence of s in l by repl, in place; on
// error l is unchanged.
func (l *Lin) Substitute(s Sym, repl Lin) error {
	i, ok := l.search(s)
	if !ok {
		return nil
	}
	return l.addScaledSkip(i, repl, l.terms[i].Coeff)
}

// String renders l using names from tab (or raw symbol numbers when tab is
// nil), with deterministic term ordering.
func (l Lin) String(tab *Table) string {
	var b strings.Builder
	first := true
	for _, t := range l.terms {
		s, c := t.Sym, t.Coeff
		var name string
		if tab != nil {
			name = tab.Name(s)
		} else {
			name = fmt.Sprintf("x%d", s)
		}
		switch {
		case first && c == 1:
			b.WriteString(name)
		case first && c == -1:
			b.WriteString("-" + name)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, name)
		case c == 1:
			b.WriteString(" + " + name)
		case c == -1:
			b.WriteString(" - " + name)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, name)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, name)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", l.Const)
	case l.Const > 0:
		fmt.Fprintf(&b, " + %d", l.Const)
	case l.Const < 0:
		fmt.Fprintf(&b, " - %d", -l.Const)
	}
	return b.String()
}

// Op is a constraint operator. Constraints are canonicalized to compare a
// linear expression against zero.
type Op int

const (
	// GE means L >= 0.
	GE Op = iota + 1
	// EQ means L == 0.
	EQ
)

func (o Op) String() string {
	switch o {
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Constraint is the atomic relation L Op 0.
type Constraint struct {
	L  Lin
	Op Op
}

// GEZero returns the constraint l >= 0.
func GEZero(l Lin) Constraint { return Constraint{L: l, Op: GE} }

// EQZero returns the constraint l == 0.
func EQZero(l Lin) Constraint { return Constraint{L: l, Op: EQ} }

// Ge returns the constraint a >= b.
func Ge(a, b Lin) (Constraint, error) {
	l := a.Clone()
	if err := l.Sub(b); err != nil {
		return Constraint{}, err
	}
	return Constraint{L: l, Op: GE}, nil
}

// Le returns the constraint a <= b.
func Le(a, b Lin) (Constraint, error) {
	l := b.Clone()
	if err := l.Sub(a); err != nil {
		return Constraint{}, err
	}
	return Constraint{L: l, Op: GE}, nil
}

// Eq returns the constraint a == b.
func Eq(a, b Lin) (Constraint, error) {
	l := a.Clone()
	if err := l.Sub(b); err != nil {
		return Constraint{}, err
	}
	return Constraint{L: l, Op: EQ}, nil
}

// Negate returns the integer negation of c. For L >= 0 this is -L-1 >= 0
// (that is, L <= -1). Negating an equality is not representable as a single
// constraint and returns an error.
func (c Constraint) Negate() (Constraint, error) {
	if c.Op != GE {
		return Constraint{}, fmt.Errorf("expr: cannot negate %s constraint into a single constraint", c.Op)
	}
	l := c.L.Neg()
	if err := l.AddConst(-1); err != nil {
		return Constraint{}, err
	}
	return Constraint{L: l, Op: GE}, nil
}

// Clone returns a deep copy of c.
func (c Constraint) Clone() Constraint {
	return Constraint{L: c.L.Clone(), Op: c.Op}
}

// Holds evaluates c under the valuation.
func (c Constraint) Holds(val func(Sym) int64) (bool, error) {
	v, err := c.L.Eval(val)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case GE:
		return v >= 0, nil
	case EQ:
		return v == 0, nil
	default:
		return false, fmt.Errorf("expr: unknown operator %v", c.Op)
	}
}

// String renders c, e.g. "b0 - 2*t - 1 + f >= 0".
func (c Constraint) String(tab *Table) string {
	return c.L.String(tab) + " " + c.Op.String() + " 0"
}
