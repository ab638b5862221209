package models

import "repro/internal/ta"

// SimplifiedConsensus builds the simplified threshold automaton of the DBFT
// binary Byzantine consensus (Fig. 4). One traversal models a *superround*:
// an odd round of Algorithm 1 (first, unprimed half — decided value 1)
// followed by an even round (second, primed half — decided value 0). The
// verified bv-broadcast of Fig. 2 is replaced by the gadget locations
// M/M0/M1/M01 whose fairness properties (Appendix F) stand in for the proven
// BV properties.
//
// Locations of the first half (second half is symmetric with an "x" suffix,
// deciding 0 instead of 1):
//
//	V0,V1: start of the round with estimate 0 resp. 1
//	M:     bv-broadcast invoked, contestants still empty
//	M0,M1: contestants = {0} resp. {1}; the aux message was broadcast
//	M01:   contestants = {0,1}
//	E0:    qualifiers = {0}: estimate set to 0
//	E1:    qualifiers = {0,1}: estimate set to the round parity (1)
//	D1:    qualifiers = {1} = parity: decided 1
//
// Shared variables: bvb0/bvb1 count correct processes that bv-broadcast 0/1
// (incremented on entering M), a0/a1 count aux messages sent by correct
// processes for value 0/1.
func SimplifiedConsensus() *ta.TA { return mustParse("simplified.ta") }
