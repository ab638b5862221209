// Package dbft is an executable implementation of the algorithms the paper
// verifies: the binary value broadcast (Fig. 1) and the DBFT binary
// Byzantine consensus (Algorithm 1) — the coordinator-free variant used by
// the Red Belly Blockchain, which is safe unconditionally and live under the
// bv-broadcast fairness assumption of Section 3.3.
//
// Processes run over the asynchronous simulated network of internal/network;
// the package is the ground-truth substrate against which the
// threshold-automata models are cross-validated.
package dbft

import (
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Rules is Algorithm 1 over the Fig. 1 bv-broadcast as a rules value of the
// protocol kit's two-step binary engine: a bit is bv-delivered (becomes a
// contestant) at 2t+1 distinct (BV, v), and the AUX announcement is the
// whole contestant set.
var Rules = protocol.BinaryRules{
	Name:            "dbft",
	Vote:            network.MsgBV,
	Announce:        network.MsgAux,
	Collect:         func(n, t int) int { return 2*t + 1 },
	AnnounceSet:     true,
	Retransmissions: obs.Default.Counter("dbft", "retransmissions"),
}

// Lies is dbft's contribution to the Byzantine scaffold: an equivocator
// sends (BV, v) and aux {v} to its v side, a liar random BV values and a
// random aux set.
var Lies = Rules.Lies()

// Process is a correct DBFT process. Its CollectOrder[r] lists the values in
// bv-delivery order for round r (used to detect v-good executions, Def. 2).
type Process = protocol.Binary

// GoodValue reports, for Def. 2, whether the round-r bv-broadcast execution
// recorded by the processes was v-good: every correct process delivered v
// first.
func GoodValue(procs []*Process, round int) (v int, good bool) {
	first := -1
	for _, p := range procs {
		order := p.CollectOrder[round]
		if len(order) == 0 {
			return 0, false
		}
		if first == -1 {
			first = order[0]
		} else if order[0] != first {
			return 0, false
		}
	}
	return first, first != -1
}
