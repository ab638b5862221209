package ltl

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// Compile translates a formula of the checkable fragment into the
// counterexample query for its negation, resolved against the automaton.
//
// Identifiers resolve as follows: `locX` refers to location X's counter
// κ[X], bare identifiers refer to shared variables or (upper-cased per ByMC
// convention, e.g. N, T, F) parameters.
//
// Supported shapes (exactly those the paper's properties use):
//
//	[](P) -> [](G)      safety with a □-premise        (Inv2, Dec, Good)
//	<>(W) -> [](G)      safety with a ◇-witness        (Inv1)
//	<>(W) -> <>(D)      liveness, conditional           (BV-Unif)
//	[](A -> <>(D))      liveness, threshold-triggered   (BV-Obl)
//	<>(D)               liveness, unconditional         (BV-Term)
//	<>[](J) -> <>(D)    liveness with justice premises  (Appendix F)
//
// where P and G are conjunctions of `locX == 0`, W is a disjunction of
// `locX != 0`, A is a rising threshold comparison, D is a conjunction of
// `locX == 0`, and J is a conjunction of justice preconditions
// (`locX == 0` or `locX == 0 || threshold-still-locked`), each optionally
// labelled with its requirement's name (unlabelled ones are justice_<i>).
// A [] premise's locations keep the order P names them in.
//
// Liveness shapes other than <>[] -> <> take the automaton's default
// (reliable-communication) justice; the <>[] premise *replaces* it.
func Compile(name string, f Formula, a *ta.TA) (spec.Query, error) {
	return newCompiler(a).property(name, f, nil)
}

// CompileFile compiles every property of a parsed file, in file order. The
// one-round automaton the queries are validated against and the default
// justice are derived once for the whole file.
func CompileFile(pf *PropertyFile, a *ta.TA) ([]spec.Query, error) {
	c := newCompiler(a)
	out := make([]spec.Query, 0, len(pf.Names))
	for _, name := range pf.Names {
		q, err := c.property(name, pf.Formulas[name], pf.Resilience[name])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

type compiler struct {
	a        *ta.TA
	oneRound *ta.TA
	justice  []ta.Justice // the default justice, built on first use
}

func newCompiler(a *ta.TA) *compiler {
	return &compiler{a: a, oneRound: a.OneRound()}
}

// property compiles one named formula and its resilience clause, if any.
func (c *compiler) property(name string, f Formula, resilience []Atom) (spec.Query, error) {
	q, err := c.compile(f)
	if err == nil && resilience != nil {
		q.RelaxResilience, err = c.resilience(resilience)
	}
	if err != nil {
		return spec.Query{}, fmt.Errorf("ltl: property %s: %w", name, err)
	}
	q.Name = name
	if err := q.Validate(c.oneRound); err != nil {
		return spec.Query{}, err
	}
	return q, nil
}

// defaultJustice is the one-round automaton's reliable-communication
// justice, shared by the file's queries that take it.
func (c *compiler) defaultJustice() []ta.Justice {
	if c.justice == nil {
		c.justice = c.oneRound.DefaultJustice()
	}
	return c.justice
}

func (c *compiler) compile(f Formula) (spec.Query, error) {
	if b, ok := f.(Binary); ok && b.Op == OpImplies {
		return c.compileImplication(b)
	}
	if u, ok := f.(Unary); ok {
		switch u.Op {
		case OpEventually:
			// <>(D): unconditional liveness under default justice.
			goal, err := c.emptyLocs(u.Sub)
			if err != nil {
				return spec.Query{}, err
			}
			return spec.Query{
				Kind:          spec.Liveness,
				FinalNonempty: []ta.LocSet{goal},
				Justice:       c.defaultJustice(),
			}, nil
		case OpAlways:
			// [](A -> <>(D)): threshold-triggered liveness.
			impl, ok := u.Sub.(Binary)
			if !ok || impl.Op != OpImplies {
				return spec.Query{}, fmt.Errorf("[] must wrap an implication or appear in a premise")
			}
			trigger, err := c.risingConstraint(impl.L)
			if err != nil {
				return spec.Query{}, err
			}
			ev, ok := impl.R.(Unary)
			if !ok || ev.Op != OpEventually {
				return spec.Query{}, fmt.Errorf("[](A -> ...) must have an eventuality on the right")
			}
			goal, err := c.emptyLocs(ev.Sub)
			if err != nil {
				return spec.Query{}, err
			}
			return spec.Query{
				Kind:          spec.Liveness,
				FinalShared:   []expr.Constraint{trigger},
				FinalNonempty: []ta.LocSet{goal},
				Justice:       c.defaultJustice(),
			}, nil
		}
	}
	return spec.Query{}, fmt.Errorf("unsupported top-level formula %s", f)
}

func (c *compiler) compileImplication(b Binary) (spec.Query, error) {
	prem, ok := b.L.(Unary)
	if !ok {
		return spec.Query{}, fmt.Errorf("implication premise must be temporal, got %s", b.L)
	}
	concl, ok := b.R.(Unary)
	if !ok {
		return spec.Query{}, fmt.Errorf("implication conclusion must be temporal, got %s", b.R)
	}

	var q spec.Query
	switch prem.Op {
	case OpAlways:
		// [](P): locations empty forever.
		locs, err := c.emptyLocList(prem.Sub)
		if err != nil {
			return spec.Query{}, err
		}
		for _, l := range locs {
			if c.oneRound.NoIncoming(l) {
				q.InitEmpty = append(q.InitEmpty, l)
			} else {
				q.GlobalEmpty = append(q.GlobalEmpty, l)
			}
		}
	case OpEventually:
		if inner, ok := prem.Sub.(Unary); ok && inner.Op == OpAlways {
			// <>[](J): justice premises replacing default fairness.
			justice, err := c.justicePremises(inner.Sub)
			if err != nil {
				return spec.Query{}, err
			}
			q.Justice = justice
		} else {
			// <>(W): a visit witness.
			set, err := c.nonemptyLocs(prem.Sub)
			if err != nil {
				return spec.Query{}, err
			}
			q.VisitNonempty = append(q.VisitNonempty, set)
		}
	default:
		return spec.Query{}, fmt.Errorf("unsupported premise %s", prem)
	}

	switch concl.Op {
	case OpAlways:
		// [](G): the counterexample visits the complement.
		if len(q.Justice) > 0 {
			return spec.Query{}, fmt.Errorf("<>[] premises require an eventuality conclusion")
		}
		locs, err := c.emptyLocs(concl.Sub)
		if err != nil {
			return spec.Query{}, err
		}
		q.Kind = spec.Safety
		q.VisitNonempty = append(q.VisitNonempty, locs)
	case OpEventually:
		// <>(D): liveness.
		goal, err := c.emptyLocs(concl.Sub)
		if err != nil {
			return spec.Query{}, err
		}
		q.Kind = spec.Liveness
		q.FinalNonempty = []ta.LocSet{goal}
		if q.Justice == nil {
			q.Justice = c.defaultJustice()
		}
	default:
		return spec.Query{}, fmt.Errorf("unsupported conclusion %s", concl)
	}
	return q, nil
}

// emptyLocList interprets a conjunction of `locX == 0` atoms as the
// locations it names, in order, each once.
func (c *compiler) emptyLocList(f Formula) ([]ta.LocID, error) {
	var out []ta.LocID
	for _, conj := range conjuncts(f) {
		atom, ok := conj.(Atom)
		if !ok {
			return nil, fmt.Errorf("expected location atoms, got %s", conj)
		}
		loc, zero, err := c.locAtom(atom)
		if err != nil {
			return nil, err
		}
		if !zero {
			return nil, fmt.Errorf("expected locX == 0, got %s", atom)
		}
		if !slices.Contains(out, loc) {
			out = append(out, loc)
		}
	}
	return out, nil
}

// emptyLocs interprets a conjunction of `locX == 0` atoms as a location set.
func (c *compiler) emptyLocs(f Formula) (ta.LocSet, error) {
	locs, err := c.emptyLocList(f)
	if err != nil {
		return nil, err
	}
	set := make(ta.LocSet, len(locs))
	for _, l := range locs {
		set[l] = true
	}
	return set, nil
}

// nonemptyLocs interprets a disjunction of `locX != 0` atoms.
func (c *compiler) nonemptyLocs(f Formula) (ta.LocSet, error) {
	set := make(ta.LocSet)
	for _, disj := range disjuncts(f) {
		atom, ok := disj.(Atom)
		if !ok {
			return nil, fmt.Errorf("expected location atoms, got %s", disj)
		}
		loc, zero, err := c.locAtom(atom)
		if err != nil {
			return nil, err
		}
		if zero {
			return nil, fmt.Errorf("expected locX != 0, got %s", atom)
		}
		set[loc] = true
	}
	return set, nil
}

// justicePremises interprets a conjunction of justice preconditions:
// `locX == 0` (unconditional drain) or `locX == 0 || cmp` where cmp is the
// negation of a rising trigger. A labelled precondition is named by its
// label, an unlabelled one by its position.
func (c *compiler) justicePremises(f Formula) ([]ta.Justice, error) {
	var out []ta.Justice
	for i, conj := range conjuncts(f) {
		var name string
		if l, ok := conj.(Labeled); ok {
			name, conj = l.Label, l.Sub
		} else {
			name = fmt.Sprintf("justice_%d", i)
		}
		if slices.ContainsFunc(out, func(j ta.Justice) bool { return j.Name == name }) {
			return nil, fmt.Errorf("two justice preconditions named %s", name)
		}
		ds := disjuncts(conj)
		var loc ta.LocID = -1
		var triggers []expr.Constraint
		for _, d := range ds {
			atom, ok := d.(Atom)
			if !ok {
				return nil, fmt.Errorf("expected atoms in justice precondition, got %s", d)
			}
			if l, zero, err := c.locAtom(atom); err == nil {
				if !zero {
					return nil, fmt.Errorf("justice precondition needs locX == 0, got %s", atom)
				}
				if loc != -1 {
					return nil, fmt.Errorf("justice precondition with two locations: %s", conj)
				}
				loc = l
				continue
			}
			// Otherwise: the negation of a rising trigger.
			neg, err := c.constraint(atom)
			if err != nil {
				return nil, err
			}
			trig, err := neg.Negate()
			if err != nil {
				return nil, err
			}
			triggers = append(triggers, trig)
		}
		if loc == -1 {
			return nil, fmt.Errorf("justice precondition without a location: %s", conj)
		}
		out = append(out, ta.Justice{Name: name, Trigger: triggers, Loc: loc})
	}
	return out, nil
}

// locAtom recognizes `locX == 0` / `locX != 0`.
func (c *compiler) locAtom(a Atom) (ta.LocID, bool, error) {
	if len(a.Left.Terms) != 1 || a.Left.Terms[0].Coeff != 1 {
		return 0, false, fmt.Errorf("not a location atom: %s", a)
	}
	name := a.Left.Terms[0].Name
	if !strings.HasPrefix(name, "loc") {
		return 0, false, fmt.Errorf("not a location atom: %s", a)
	}
	if len(a.Right.Terms) != 1 || a.Right.Terms[0].Name != "" || a.Right.Terms[0].Coeff != 0 {
		return 0, false, fmt.Errorf("location atoms compare against 0: %s", a)
	}
	loc, err := c.a.LocByName(strings.TrimPrefix(name, "loc"))
	if err != nil {
		return 0, false, err
	}
	switch a.Op {
	case OpEq:
		return loc, true, nil
	case OpNe:
		return loc, false, nil
	default:
		return 0, false, fmt.Errorf("location atoms use == or !=: %s", a)
	}
}

// risingConstraint compiles an atom over shared variables/parameters that is
// rising in the shared variables (used for ◇-premises asserted at the final
// frame).
func (c *compiler) risingConstraint(f Formula) (expr.Constraint, error) {
	atom, ok := f.(Atom)
	if !ok {
		return expr.Constraint{}, fmt.Errorf("expected a comparison, got %s", f)
	}
	return c.constraint(atom)
}

// resilience compiles a resilience clause: comparisons over the
// parameters, in order, with `==` kept as an equality.
func (c *compiler) resilience(atoms []Atom) ([]expr.Constraint, error) {
	out := make([]expr.Constraint, 0, len(atoms))
	for _, atom := range atoms {
		var con expr.Constraint
		var err error
		if atom.Op == OpEq {
			var diff expr.Lin
			if diff, err = c.difference(atom); err == nil {
				con = expr.EQZero(diff)
			}
		} else {
			con, err = c.constraint(atom)
		}
		if err != nil {
			return nil, err
		}
		for _, t := range con.L.Terms() {
			if !slices.Contains(c.a.Params, t.Sym) {
				return nil, fmt.Errorf("resilience condition %s names %s, which is not a parameter", atom, c.a.Table.Name(t.Sym))
			}
		}
		out = append(out, con)
	}
	return out, nil
}

// difference compiles the two sides of a comparison into left - right.
func (c *compiler) difference(a Atom) (expr.Lin, error) {
	diff, err := c.expr(a.Left)
	if err != nil {
		return expr.Lin{}, err
	}
	r, err := c.expr(a.Right)
	if err != nil {
		return expr.Lin{}, err
	}
	if err := diff.Sub(r); err != nil {
		return expr.Lin{}, err
	}
	return diff, nil
}

// constraint compiles a comparison atom into a single GE constraint.
// Equality and strict operators are normalized over the integers.
func (c *compiler) constraint(a Atom) (expr.Constraint, error) {
	diff, err := c.difference(a)
	if err != nil {
		return expr.Constraint{}, err
	}
	switch a.Op {
	case OpGe: // l - r >= 0
		return expr.GEZero(diff), nil
	case OpGt: // l - r - 1 >= 0
		if err := diff.AddConst(-1); err != nil {
			return expr.Constraint{}, err
		}
		return expr.GEZero(diff), nil
	case OpLe: // r - l >= 0
		neg := diff.Neg()
		return expr.GEZero(neg), nil
	case OpLt: // r - l - 1 >= 0
		neg := diff.Neg()
		if err := neg.AddConst(-1); err != nil {
			return expr.Constraint{}, err
		}
		return expr.GEZero(neg), nil
	case OpEq:
		// Over nonnegative counters, `x == 0` is `-x >= 0`.
		if isZero(a.Right) {
			return expr.GEZero(diff.Neg()), nil
		}
		return expr.Constraint{}, fmt.Errorf("equalities other than == 0 are not in the fragment: %s", a)
	default:
		return expr.Constraint{}, fmt.Errorf("unsupported comparison %s", a)
	}
}

func isZero(e Expr) bool {
	return len(e.Terms) == 1 && e.Terms[0].Name == "" && e.Terms[0].Coeff == 0
}

// expr resolves names: shared variables by exact name, parameters
// case-insensitively (ByMC files use N, T, F).
func (c *compiler) expr(e Expr) (expr.Lin, error) {
	out := expr.Lin{}
	for _, t := range e.Terms {
		if t.Name == "" {
			if err := out.AddConst(t.Coeff); err != nil {
				return expr.Lin{}, err
			}
			continue
		}
		sym, err := c.resolve(t.Name)
		if err != nil {
			return expr.Lin{}, err
		}
		if err := out.AddTerm(sym, t.Coeff); err != nil {
			return expr.Lin{}, err
		}
	}
	return out, nil
}

func (c *compiler) resolve(name string) (expr.Sym, error) {
	if s, err := c.a.SharedByName(name); err == nil {
		return s, nil
	}
	lower := strings.ToLower(name)
	for _, p := range c.a.Params {
		if c.a.Table.Name(p) == lower {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown variable %q", name)
}
