package models

import "repro/internal/ta"

// STReliableBroadcast builds the threshold automaton of the classic
// Srikanth-Toueg authenticated/reliable broadcast — the original benchmark
// of threshold-automata verification (John, Konnov, Schmid, Veith, Widder,
// SPIN'13; reference [33] of the paper) and an ancestor of the
// bv-broadcast this repository implements executably (internal/dbft).
//
// Locations: a correct process starts in V1 (it received the broadcaster's
// INIT message) or V0 (it did not); SE = it has sent its ECHO; AC = it has
// accepted. The shared variable e counts ECHO messages sent by correct
// processes; the Byzantine contribution f is folded into the guards as
// usual:
//
//	V1 -> SE: true, e++            (echo upon INIT)
//	V0 -> SE: e >= t+1-f, e++      (echo upon t+1 distinct echoes)
//	SE -> AC: e >= 2t+1-f          (accept upon 2t+1 distinct echoes)
//
// The three properties are the classic ones: Unforgeability (nobody accepts
// if nobody got the INIT), Correctness (if everybody got the INIT,
// everybody accepts) and Relay (if somebody accepts, everybody accepts).
func STReliableBroadcast() *ta.TA { return mustParse("strb.ta") }
