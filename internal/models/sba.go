package models

import "repro/internal/ta"

// SBA builds the multi-round threshold automaton of the SBA* binary
// reduction implemented executably in internal/sba (a Turpin–Coan
// adaptation for n > 3t with a rotating round-parity default). One traversal
// models a *superround*: a parity-0 round (first, unprimed half — decide
// value 0) followed by a parity-1 round (second, "x"-suffixed half — decide
// value 1), connected by mid-superround rules; round-switch rules close the
// loop into the next superround.
//
// Locations of the first half (second half is symmetric, deciding 1):
//
//	I0,I1: start of the round with estimate 0 resp. 1
//	W:     step-1 vote broadcast, nothing locked yet
//	L0,L1: first lock on bit 0 resp. 1; the step-2 candidate was broadcast
//	L01:   both bits locked
//	D0:    chosen candidates uniformly 0 = parity: decided 0
//	E1:    chosen candidates uniformly 1: estimate set to 1
//	E01:   chosen candidates mixed: estimate set to the parity (0)
//
// Shared variables: v0/v1 count correct processes whose estimate entering
// the round is 0/1 (their step-1 votes), c0/c1 count step-2 candidates
// broadcast by correct processes for bit 0/1.
//
// The lock guards are justification-only (v_b >= 1): a lock on b needs
// n - t distinct vote senders, hence at least one correct vote of b, and
// tracing echoes back through the t+1 amplification threshold bottoms out
// at a correct process that *started* the round estimating b. The exit
// guards carry the real thresholds: n - t justified candidates minus the f
// the adversary may contribute leaves c >= n - t - f correct ones. Mixed
// exits additionally require both bits locked locally, which is the L01
// location, not a guard.
func SBA() *ta.TA { return mustParse("sba.ta") }
