// Package spec defines the checkable query form that both verification
// back-ends (the parameterized schema checker of internal/schema and the
// explicit-state baseline of internal/counter) consume.
//
// A Query describes the NEGATION of an LTL property: the constraints a
// counterexample execution must satisfy. The supported shapes cover the LTL
// fragment the paper uses (Sections 3.2, 5.1, 5.2 and Appendix F):
//
//   - safety: ◇-witnesses ("some process visits the set", "shared variable
//     reaches a threshold") combined with □-premises ("location empty
//     initially / forever"),
//   - liveness: the same plus justice-stable final configurations where the
//     goal's location sets remain nonempty.
//
// The translation exploits three structural facts about rising-guard DAG
// automata, each checked statically by Validate:
//
//  1. "set S was visited" is equivalent to "S started nonempty or some rule
//     entered S from outside" (a linear flow condition);
//  2. emptiness of a predecessor-closed set is stable, so "□ S empty" is
//     violated iff S is nonempty in the final configuration;
//  3. every fair infinite execution eventually stutters in a justice-stable
//     configuration, so liveness counterexamples are reachable justice-stable
//     configurations violating the goal.
package spec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/ta"
)

// Kind classifies queries.
type Kind int

const (
	// Safety queries need no fairness: a finite run witnesses the violation.
	Safety Kind = iota + 1
	// Liveness queries require the final configuration to be justice-stable.
	Liveness
)

func (k Kind) String() string {
	switch k {
	case Safety:
		return "safety"
	case Liveness:
		return "liveness"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Query is the counterexample search problem for one property.
type Query struct {
	Name string
	Kind Kind

	// InitEmpty lists locations that must be empty in the initial
	// configuration (□-premises on locations with no incoming rules, e.g.
	// κ[V0]=0 in BV-Justification and Validity).
	InitEmpty []ta.LocID

	// GlobalEmpty lists locations that must be empty throughout the run
	// (□-premises on interior locations, e.g. κ[M0]=0 in Good). The checker
	// realizes this as "empty initially and no rule moves into it".
	GlobalEmpty []ta.LocID

	// VisitNonempty lists location sets that must each be visited: at some
	// point at least one process is inside (◇-witnesses such as ◇κ[D0]≠0 and
	// goal violations of always-emptiness such as ¬□κ[D1]=0).
	VisitNonempty []ta.LocSet

	// FinalShared lists rising constraints over shared variables and
	// parameters that must hold in the final configuration (◇-premises on
	// thresholds, e.g. b0 ≥ t+1 in BV-Obligation; rising means holding at
	// the end subsumes holding earlier).
	FinalShared []expr.Constraint

	// FinalNonempty lists predecessor-closed location sets that must be
	// nonempty in the final configuration (liveness goal violations: the set
	// that should have drained still holds a process).
	FinalNonempty []ta.LocSet

	// Justice lists the fairness requirements the final configuration must
	// satisfy for the stuttering extension to be a fair run. Only used when
	// Kind == Liveness.
	Justice []ta.Justice

	// RelaxResilience, when non-nil, replaces the automaton's resilience
	// condition (used to regenerate the paper's counterexample for n ≤ 3t).
	RelaxResilience []expr.Constraint
}

// Validate checks the structural prerequisites described in the package
// comment against the (one-round) automaton the query targets.
func (q *Query) Validate(a *ta.TA) error {
	if q.Name == "" {
		return fmt.Errorf("spec: query has no name")
	}
	if q.Kind != Safety && q.Kind != Liveness {
		return fmt.Errorf("spec: query %s has invalid kind", q.Name)
	}
	checkLoc := func(l ta.LocID) error {
		if l < 0 || int(l) >= len(a.Locations) {
			return fmt.Errorf("spec: query %s references out-of-range location %d", q.Name, l)
		}
		return nil
	}
	for _, l := range q.InitEmpty {
		if err := checkLoc(l); err != nil {
			return err
		}
		if !a.NoIncoming(l) {
			return fmt.Errorf("spec: query %s: InitEmpty location %s has incoming rules; use GlobalEmpty",
				q.Name, a.Locations[l].Name)
		}
	}
	for _, l := range q.GlobalEmpty {
		if err := checkLoc(l); err != nil {
			return err
		}
	}
	for _, s := range q.VisitNonempty {
		for l := range s {
			if err := checkLoc(l); err != nil {
				return err
			}
		}
	}
	for _, s := range q.FinalNonempty {
		for l := range s {
			if err := checkLoc(l); err != nil {
				return err
			}
		}
		if err := a.PredClosed(s); err != nil {
			return fmt.Errorf("spec: query %s: %w", q.Name, err)
		}
	}
	sharedOrParam := make(map[expr.Sym]bool)
	for _, s := range a.Shared {
		sharedOrParam[s] = true
	}
	for _, p := range a.Params {
		sharedOrParam[p] = true
	}
	for _, c := range q.FinalShared {
		if c.Op != expr.GE {
			return fmt.Errorf("spec: query %s: FinalShared constraints must be >=", q.Name)
		}
		for _, t := range c.L.Terms() {
			s, coeff := t.Sym, t.Coeff
			if !sharedOrParam[s] {
				return fmt.Errorf("spec: query %s: FinalShared mentions unknown symbol", q.Name)
			}
			// rising in shared variables
			isParam := false
			for _, p := range a.Params {
				if p == s {
					isParam = true
				}
			}
			if !isParam && coeff < 0 {
				return fmt.Errorf("spec: query %s: FinalShared constraint is not rising", q.Name)
			}
		}
	}
	if q.Kind == Safety && len(q.Justice) > 0 {
		return fmt.Errorf("spec: query %s: safety queries must not carry justice requirements", q.Name)
	}
	for _, j := range q.Justice {
		if err := checkLoc(j.Loc); err != nil {
			return err
		}
	}
	return nil
}

// Outcome is the verdict for one property.
type Outcome int

const (
	// Holds means no counterexample exists: the property is verified for all
	// parameters admitted by the resilience condition.
	Holds Outcome = iota + 1
	// Violated means a counterexample was found (and replayed).
	Violated
	// Budget means the search budget was exhausted before a verdict — the
	// fate of the naive automaton in the paper's Table 2.
	Budget
)

func (o Outcome) String() string {
	switch o {
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	case Budget:
		return "budget-exceeded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Label is the form outcomes take in reports, cache entries and service
// responses: the obs report schema's "budget" rather than String's long
// "budget-exceeded".
func (o Outcome) Label() string {
	if o == Budget {
		return "budget"
	}
	return o.String()
}
