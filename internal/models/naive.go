package models

import "repro/internal/ta"

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
