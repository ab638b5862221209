package models

import (
	"repro/internal/spec"
	"repro/internal/ta"
)

// NaiveConsensus builds the naive threshold automaton of Algorithm 1
// (Fig. 3, with the rule table of Appendix D / Table 3): the full DBFT
// binary consensus with the bv-broadcast automaton of Fig. 2 embedded twice,
// once per round of the superround. This is the automaton that is too large
// for parameterized model checking — Table 2 reports that none of its
// properties could be verified within a day, even on 64 cores.
//
// The first (odd) half uses shared variables b0,b1 (BV echoes) and a0,a1
// (aux messages); the second (even) half uses the primed b0x..a1x. Entering
// a first-delivery location additionally broadcasts the corresponding aux
// message (a_v++), per line 8 of Algorithm 1 and Table 3.
func NaiveConsensus() *ta.TA { return mustParse("naive.ta") }

// NaiveQueries returns the Table 2 properties for the naive automaton:
// Inv1_0, Inv2_0 and SRoundTerm. Because the bv-broadcast structure is
// explicit here, the plain reliable-communication justice (DefaultJustice)
// is the appropriate fairness assumption for the liveness property.
func NaiveQueries(a *ta.TA) ([]spec.Query, error) {
	oneRound := a.OneRound()
	var err error
	set := func(names ...string) ta.LocSet {
		s, serr := a.LocSetByName(names...)
		if serr != nil && err == nil {
			err = serr
		}
		return s
	}
	loc := func(name string) ta.LocID {
		id, lerr := a.LocByName(name)
		if lerr != nil && err == nil {
			err = lerr
		}
		return id
	}

	nonFinal := make(ta.LocSet, len(a.Locations))
	for i, l := range a.Locations {
		if l.Name != "D0" && l.Name != "E0x" && l.Name != "E1x" {
			nonFinal[ta.LocID(i)] = true
		}
	}

	queries := []spec.Query{
		{
			Name:          "Inv1_0",
			Kind:          spec.Safety,
			VisitNonempty: []ta.LocSet{set("D0"), set("D1", "E1x")},
		},
		{
			Name:          "Inv2_0",
			Kind:          spec.Safety,
			InitEmpty:     []ta.LocID{loc("V0")},
			VisitNonempty: []ta.LocSet{set("D0", "E0x")},
		},
		{
			Name:          "SRoundTerm",
			Kind:          spec.Liveness,
			FinalNonempty: []ta.LocSet{nonFinal},
			Justice:       oneRound.DefaultJustice(),
		},
	}
	if err != nil {
		return nil, err
	}
	for i := range queries {
		if verr := queries[i].Validate(oneRound); verr != nil {
			return nil, verr
		}
	}
	return queries, nil
}
