package smt

import (
	"slices"
	"time"

	"repro/internal/expr"
)

// Lit is one disjunct of a Clause. Asserting the literal asserts C plus
// every constraint in Implied: facts entailed by C that the linear
// relaxation cannot derive by itself but that prune the search dramatically
// (e.g. a rising guard asserted at one frame also holds at all later
// frames).
type Lit struct {
	C       expr.Constraint
	Implied []expr.Constraint
}

// Clause is a disjunction of literals: at least one must hold. Clauses
// express the non-convex side conditions of the schema encodings:
// per-firing guard obligations ("factor is zero OR the guard holds here")
// and the justice preconditions of liveness queries (Appendix F's
// "location empty OR trigger still locked").
type Clause []Lit

// ClauseOf builds a clause from plain constraints without implied facts.
func ClauseOf(cs ...expr.Constraint) Clause {
	out := make(Clause, len(cs))
	for i, c := range cs {
		out[i] = Lit{C: c}
	}
	return out
}

// ClauseLimits bounds the lazy case-splitting search.
type ClauseLimits struct {
	// MaxSplits bounds the number of branches explored (0 = default).
	MaxSplits int
	// MaxBBNodes bounds branch-and-bound nodes per leaf (0 = default).
	MaxBBNodes int
	// Deadline, when nonzero, aborts the search with Unknown once passed.
	// It is consulted once every pollStride search events, not at every
	// node, so expiry is detected within pollStride events.
	Deadline time.Time
	// Stop, when set, aborts the search with Unknown on a true return (the
	// cooperative-interrupt hook signal handlers use to stop a long check
	// cleanly). Polled on the same stride as Deadline.
	Stop func() bool
}

func (l ClauseLimits) withDefaults() ClauseLimits {
	if l.MaxSplits <= 0 {
		l.MaxSplits = 1 << 16
	}
	if l.MaxBBNodes <= 0 {
		l.MaxBBNodes = 1 << 12
	}
	return l
}

// pollStride is how many search events (case splits + branch-and-bound
// nodes) elapse between consecutive Deadline/Stop consultations. The old
// code called time.Now() at every node — measurable on the branch-and-bound
// hot path — so polling is strided: the first event polls (a search that
// starts past its deadline dies immediately), then every pollStride-th.
// An expired deadline is therefore honored within pollStride events.
const pollStride = 256

// poller tracks the strided Deadline/Stop polling for one search. It is
// shared between the case-splitting and branch-and-bound layers so the
// stride counts their events as a single stream.
type poller struct {
	limits  ClauseLimits
	events  int
	stopped bool
}

func newPoller(limits ClauseLimits) *poller {
	return &poller{limits: limits}
}

// aborted reports whether the search must wind down with Unknown. With no
// Deadline and no Stop configured it is a pair of nil checks — the
// unlimited hot path stays free of clock reads and counter traffic.
func (p *poller) aborted() bool {
	if p.stopped {
		return true
	}
	if p.limits.Deadline.IsZero() && p.limits.Stop == nil {
		return false
	}
	p.events++
	if p.events%pollStride != 1 && pollStride > 1 {
		return false
	}
	obsDeadlinePolls.Inc()
	if !p.limits.Deadline.IsZero() && time.Now().After(p.limits.Deadline) {
		p.stopped = true
	}
	if !p.stopped && p.limits.Stop != nil && p.limits.Stop() {
		p.stopped = true
	}
	return p.stopped
}

// CheckClauses decides integer satisfiability of the asserted constraints
// conjoined with every clause, DPLL(T)-style: the rational relaxation prunes
// branches, and splitting happens lazily — only on clauses the current
// rational model violates. When the model satisfies every clause, the
// model-chosen literals are asserted and an integer model is sought; if
// that fails, the search falls back to systematic branching.
//
// On Sat the returned model satisfies the hard constraints and at least one
// literal of every clause.
func (s *Solver) CheckClauses(clauses []Clause, limits ClauseLimits) (Status, Model, error) {
	limits = limits.withDefaults()
	splits := 0
	// The search reorders its own copy of the list in place (see
	// checkClausesRec), never the caller's.
	return s.checkClausesRec(slices.Clone(clauses), limits, &splits, newPoller(limits))
}

func (s *Solver) assertLit(l Lit) {
	s.Assert(l.C)
	s.AssertAll(l.Implied)
}

func (s *Solver) checkClausesRec(clauses []Clause, limits ClauseLimits, splits *int, p *poller) (Status, Model, error) {
	if *splits >= limits.MaxSplits {
		return Unknown, nil, nil
	}
	if p.aborted() {
		return Unknown, nil, nil
	}
	*splits++
	s.Stats.CaseSplit++
	obsCaseSplits.Inc()

	st, err := s.check()
	if err != nil {
		return 0, nil, err
	}
	if st == Unsat {
		return Unsat, nil, nil
	}

	// Find a clause the relaxation's basic solution violates. Nothing below
	// touches the tableau before the next check, so it stays readable while
	// the chosen literals are asserted.
	t := s.lp.tab
	violated := -1
	for ci, clause := range clauses {
		if t.heldLit(clause) < 0 {
			violated = ci
			break
		}
	}

	if violated == -1 {
		// Every clause is rationally satisfied. Pin the solution-chosen
		// literals and look for an integer model.
		s.Push()
		for _, clause := range clauses {
			s.assertLit(clause[t.heldLit(clause)])
		}
		st, m, err := s.checkIntegerWith(limits, p)
		s.Pop()
		if err != nil {
			return 0, nil, err
		}
		if st == Sat {
			return Sat, m, nil
		}
		if len(clauses) == 0 {
			return st, nil, nil
		}
		// The pinned literal combination has no integer model; fall back to
		// systematic branching on the first clause.
		violated = 0
	}

	// The branches search the other clauses in their order: the split clause
	// moves to the end of the list, the branches get the rest as its prefix,
	// and the clause moves back before this call returns.
	clause := clauses[violated]
	copy(clauses[violated:], clauses[violated+1:])
	clauses[len(clauses)-1] = clause
	defer func() {
		copy(clauses[violated+1:], clauses[violated:len(clauses)-1])
		clauses[violated] = clause
	}()
	rest := clauses[:len(clauses)-1]

	sawUnknown := false
	for _, l := range clause {
		s.Push()
		s.assertLit(l)
		st, m, err := s.checkClausesRec(rest, limits, splits, p)
		s.Pop()
		if err != nil {
			return 0, nil, err
		}
		switch st {
		case Sat:
			return Sat, m, nil
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil, nil
	}
	return Unsat, nil, nil
}
