// Package smt implements a small decision procedure for quantifier-free
// linear integer arithmetic over nonnegative variables: the fragment that the
// schema encoder (internal/schema) emits. It is the stand-in for the SMT
// backend (Z3) that ByMC uses in the paper.
//
// The core is an exact-arithmetic two-phase simplex for rational feasibility
// (rows keep only their non-zeros, as plain int64 integers while every one
// fits and as int64 fractions that promote to big.Rat on overflow
// otherwise), with branch-and-bound on top for integer feasibility, and a
// model-guided lazy case-splitting loop for disjunctions (used for the
// justice/fairness side conditions of liveness queries).
//
// Every variable is implicitly constrained to be >= 0; all quantities in the
// threshold-automata encodings (parameters, location counters, acceleration
// factors) are naturally nonnegative.
package smt

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/expr"
	"repro/internal/obs"
)

// Status is the outcome of a satisfiability check.
type Status int

const (
	// Unsat means the asserted constraints are unsatisfiable.
	Unsat Status = iota + 1
	// Sat means a model was found.
	Sat
	// Unknown means the search budget was exhausted before a decision.
	Unknown
)

func (s Status) String() string {
	switch s {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBudget is returned (wrapped) when a search exceeds its node budget.
var ErrBudget = errors.New("smt: search budget exhausted")

// Solver accumulates constraints over a symbol table and answers
// satisfiability queries. Assertions are scoped with Push/Pop. The zero value
// is not usable; create with NewSolver.
type Solver struct {
	tab         *expr.Table
	constraints []expr.Constraint
	marks       []int

	// Incremental LP state: the feasible tableau for the first lp.count
	// asserted constraints, saved across Push/Pop so that sibling branches
	// restore their parent's basis instead of re-solving phase one.
	lp      lpState
	lpStack []lpState
	scratch scratch // storage shared by every tableau of this solver

	// Stats accumulates counters across checks; callers may read or reset.
	Stats Stats
}

type lpState struct {
	tab   *tableau // nil = must rebuild from scratch
	count int      // constraints already incorporated
	// saved reports that tab is the basis a Push saved and that no check
	// has written it since. Push marks the tableau rather than copying it
	// and the checks inside the scope write it in place, logging on the
	// trail what Pop's undo needs (see trail); the first check that writes
	// it is counted as smt.lazy_clones, the event that once cloned it.
	saved bool
}

// Stats records solver effort. It is the obs report's struct, so the
// counters cross every layer above (cache entry, wire record, response,
// report) without being re-typed.
type Stats = obs.SolverMetrics

// NewSolver returns an empty solver over tab.
func NewSolver(tab *expr.Table) *Solver {
	return &Solver{tab: tab}
}

// Assert adds a constraint at the current scope level.
func (s *Solver) Assert(c expr.Constraint) {
	s.constraints = append(s.constraints, c)
}

// AssertAll adds each constraint at the current scope level.
func (s *Solver) AssertAll(cs []expr.Constraint) {
	s.constraints = append(s.constraints, cs...)
}

// Push opens a new assertion scope, saving the warm LP basis so that Pop can
// restore it without re-solving. Nothing is copied: the tableau is marked,
// and the checks inside the scope keep writing it in place.
func (s *Solver) Push() {
	s.marks = append(s.marks, len(s.constraints))
	s.lp.saved = true
	saved := s.lp
	if saved.tab != nil && !saved.tab.mark() {
		saved.tab = nil // no trail to restore it from: Pop leaves a rebuild
	}
	s.lpStack = append(s.lpStack, saved)
}

// Pop discards all assertions made since the matching Push. Popping an empty
// stack is a no-op. The basis the Push saved is restored by undoing the
// scope on its tableau — also when a check inside the scope found it
// infeasible or replaced it with a rebuilt one.
func (s *Solver) Pop() {
	if len(s.marks) == 0 {
		return
	}
	n := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	s.constraints = s.constraints[:n]
	s.lp = s.lpStack[len(s.lpStack)-1]
	s.lpStack = s.lpStack[:len(s.lpStack)-1]
	if s.lp.tab != nil {
		s.lp.tab.undo()
	}
}

// NumAssertions reports the number of currently asserted constraints.
func (s *Solver) NumAssertions() int { return len(s.constraints) }

// Model maps symbols to values. Symbols not mentioned by any constraint are
// absent and should be read as zero.
type Model map[expr.Sym]int64

// Value returns the model value of s (0 when absent).
func (m Model) Value(s expr.Sym) int64 { return m[s] }

// RatModel is a rational model as produced by the LP core.
type RatModel map[expr.Sym]*big.Rat

// Value returns the value of s (0 when absent).
func (m RatModel) Value(s expr.Sym) *big.Rat {
	if v, ok := m[s]; ok {
		return v
	}
	return new(big.Rat)
}

// IsIntegral reports whether every value in the model is an integer.
func (m RatModel) IsIntegral() bool {
	for _, v := range m {
		if !v.IsInt() {
			return false
		}
	}
	return true
}

// ToInt converts an integral rational model to an integer model. It returns
// an error if any value is fractional or does not fit in int64.
func (m RatModel) ToInt() (Model, error) {
	out := make(Model, len(m))
	for s, v := range m {
		if !v.IsInt() {
			return nil, fmt.Errorf("smt: value of symbol %d is fractional: %s", s, v)
		}
		n := v.Num()
		if !n.IsInt64() {
			return nil, fmt.Errorf("smt: value of symbol %d exceeds int64: %s", s, v)
		}
		out[s] = n.Int64()
	}
	return out, nil
}

// CheckRational decides satisfiability over the nonnegative rationals.
// On Sat it returns a rational model. Re-checks after new assertions are
// warm-started from the previous feasible basis with dual-simplex pivots.
func (s *Solver) CheckRational() (Status, RatModel, error) {
	st, err := s.check()
	if st != Sat {
		return st, nil, err
	}
	return Sat, s.lp.tab.model(), nil
}

// Frac is a symbol whose value in the relaxation's basic solution is not
// an integer, with the bounds a branch on it needs: x <= Floor and
// x >= Floor+1. OK is false where either bound leaves int64 — asserting a
// wrapped bound would be a garbage cut that can flip the verdict, so the
// caller must give up on the symbol instead.
type Frac struct {
	Sym   expr.Sym
	Floor int64
	OK    bool
}

// CheckFractional is CheckRational for callers that need at most a
// branching variable, not a model: on Sat it returns the first k fractional
// symbols in symbol order (none when k is 0 or the solution is integral),
// read off the basis without building a RatModel.
func (s *Solver) CheckFractional(k int) (Status, []Frac, error) {
	st, err := s.check()
	if st != Sat {
		return st, nil, err
	}
	return Sat, s.lp.tab.fractional(k), nil
}

// check is the rational feasibility check behind both. On Sat, s.lp.tab is
// the feasible tableau of every asserted constraint, for the caller to read.
func (s *Solver) check() (Status, error) {
	s.Stats.LPChecks++
	obsLPChecks.Inc()

	if s.lp.tab != nil && s.lp.count <= len(s.constraints) {
		if len(s.constraints) > s.lp.count && s.lp.saved {
			// The first write to a basis a Push saved. With no new
			// constraints the stored (feasible) tableau is only read.
			s.lp.saved = false
			obsLazyClones.Inc()
		}
		t := s.lp.tab
		for _, c := range s.constraints[s.lp.count:] {
			if err := t.addConstraint(c); err != nil {
				return 0, err
			}
		}
		s.lp.count = len(s.constraints)
		feasible, pivots, err := t.dualRestore()
		s.Stats.Pivots += pivots
		obsPivots.Add(int64(pivots))
		obsRowsCopied.Add(int64(t.logged))
		t.logged = 0
		if err == nil {
			if !feasible {
				// Leave the state invalid; the caller Pops back to the
				// saved basis (or the next check rebuilds).
				s.lp.tab = nil
				return Unsat, nil
			}
			return Sat, nil
		}
		if !errors.Is(err, errPivotLimit) {
			return 0, err
		}
		// Degenerate cycling guard tripped: fall through to a fresh solve.
	}

	s.Stats.Rebuilds++
	obsRebuilds.Inc()
	t := newTableau(&s.scratch)
	for _, c := range s.constraints {
		if err := t.addConstraint(c); err != nil {
			return 0, err
		}
	}
	feasible, pivots, err := t.solveFresh()
	s.Stats.Pivots += pivots
	obsPivots.Add(int64(pivots))
	if err != nil {
		return 0, err
	}
	if !feasible {
		s.lp.tab = nil
		return Unsat, nil
	}
	s.lp = lpState{tab: t, count: len(s.constraints)}
	return Sat, nil
}

// CheckInteger decides satisfiability over the nonnegative integers using
// branch-and-bound with at most maxNodes LP relaxations. If the budget is
// exhausted it returns Unknown.
func (s *Solver) CheckInteger(maxNodes int) (Status, Model, error) {
	return s.CheckIntegerLimits(ClauseLimits{MaxBBNodes: maxNodes})
}

// CheckIntegerLimits is CheckInteger with the full limit set: besides the
// node budget it honors Deadline and Stop — consulted once every pollStride
// branch-and-bound nodes, so a long integer search winds down within a
// bounded number of nodes of a timeout or a cooperative interrupt instead
// of running to its node budget. Exceeding any limit returns Unknown.
func (s *Solver) CheckIntegerLimits(limits ClauseLimits) (Status, Model, error) {
	if limits.MaxBBNodes <= 0 {
		limits.MaxBBNodes = 1 << 20
	}
	return s.checkIntegerWith(limits, newPoller(limits))
}

// checkIntegerWith is CheckIntegerLimits sharing the caller's poller, so a
// case-splitting search and its leaf branch-and-bound runs stride their
// Deadline/Stop polls over one combined event stream.
func (s *Solver) checkIntegerWith(limits ClauseLimits, p *poller) (Status, Model, error) {
	nodes := 0
	st, m, err := s.branchAndBound(limits, &nodes, p)
	return st, m, err
}

func (s *Solver) branchAndBound(limits ClauseLimits, nodes *int, p *poller) (Status, Model, error) {
	if *nodes >= limits.MaxBBNodes {
		return Unknown, nil, nil
	}
	if p.aborted() {
		return Unknown, nil, nil
	}
	*nodes++
	s.Stats.BBNodes++
	obsBBNodes.Inc()

	st, fracs, err := s.CheckFractional(1)
	if err != nil {
		return 0, nil, err
	}
	if st == Unsat {
		return Unsat, nil, nil
	}
	if len(fracs) == 0 {
		m, err := s.lp.tab.intModel()
		if err != nil {
			return 0, nil, err
		}
		return Sat, m, nil
	}
	// Branch on the smallest fractional symbol; without usable bounds,
	// surface the budget-style honest answer instead.
	frac, floor := fracs[0].Sym, fracs[0].Floor
	if !fracs[0].OK {
		return Unknown, nil, nil
	}

	// Branch x <= floor.
	s.Push()
	le, err := expr.Le(expr.Var(frac), expr.NewLin(floor))
	if err != nil {
		s.Pop()
		return 0, nil, err
	}
	s.Assert(le)
	st, m, err := s.branchAndBound(limits, nodes, p)
	s.Pop()
	if err != nil || st == Sat {
		return st, m, err
	}
	sawUnknown := st == Unknown

	// Branch x >= floor+1.
	s.Push()
	ge, err := expr.Ge(expr.Var(frac), expr.NewLin(floor+1))
	if err != nil {
		s.Pop()
		return 0, nil, err
	}
	s.Assert(ge)
	st, m, err = s.branchAndBound(limits, nodes, p)
	s.Pop()
	if err != nil || st == Sat {
		return st, m, err
	}
	if sawUnknown || st == Unknown {
		return Unknown, nil, nil
	}
	return Unsat, nil, nil
}

// ratFloor returns floor(r) and whether it fits in int64. The old code
// called Int64 unchecked, so a relaxation vertex beyond ±2^63 silently
// wrapped into a nonsense branching bound.
func ratFloor(r *big.Rat) (int64, bool) {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	// big.Int.Quo truncates toward zero; adjust for negatives. All our
	// variables are nonnegative so this is defensive only.
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		return 0, false
	}
	return q.Int64(), true
}

// Verify checks that model satisfies every asserted constraint; it is used by
// tests and by counterexample replay to guard against solver bugs.
func (s *Solver) Verify(m Model) error {
	val := func(sym expr.Sym) int64 { return m.Value(sym) }
	for i, c := range s.constraints {
		ok, err := c.Holds(val)
		if err != nil {
			return fmt.Errorf("smt: evaluating constraint %d: %w", i, err)
		}
		if !ok {
			return fmt.Errorf("smt: model violates constraint %d: %s", i, c.String(s.tab))
		}
		for _, t := range c.L.Terms() {
			if m.Value(t.Sym) < 0 {
				return fmt.Errorf("smt: model assigns negative value to %s", s.tab.Name(t.Sym))
			}
		}
	}
	return nil
}
