package models

import "repro/internal/ta"

// Bosco builds a threshold automaton for BOSCO, the one-step Byzantine
// asynchronous consensus of Song and van Renesse (DISC'08) — reference [63]
// of the paper and a standard benchmark of parameterized TA verification.
// Each process broadcasts its vote, waits for n-t VOTE messages and then:
//
//   - decides v if more than (n+3t)/2 of the received votes are v;
//   - otherwise adopts v for the underlying consensus if more than (n-t)/2
//     of them are v;
//   - otherwise keeps its own value (location UU).
//
// The adversary chooses which n-t of the available messages arrive, so the
// automaton's guards are the *possibility* conditions for each outcome,
// derived by quantifier elimination over the received counts cnt0, cnt1
// (cnt0 + cnt1 = n-t, cnt_v <= x_v + f, with x_v the votes sent by correct
// processes):
//
//	decide 0:  2(x0+f) >= n+3t+1   ∧  2(n-t) >= n+3t+1 (param: n > 5t)
//	adopt 0:   2(x0+f) >= n-t+1    ∧  2(x1+f) >= n-5t   (sample cannot
//	           avoid being a decide-0 sample otherwise — this conjunct is
//	           the branch priority of the algorithm: adopt fires only when
//	           some sample adopts WITHOUT satisfying the decide threshold)
//	keep own:  2(x_v+f) >= n-t for both v
//
// all conjoined with availability x0 + x1 + f >= n-t.
//
// The classic results become checkable queries (specs/bosco.ltl):
// one-step lemma/agreement under n > 3t; weakly one-step termination in one
// communication step under n > 5t when f = 0 and inputs are unanimous;
// strongly one-step under n > 7t with any f <= t; and the gap in between,
// where the checker produces the adopt-instead-of-decide counterexample.
func Bosco() *ta.TA { return mustParse("bosco.ta") }
