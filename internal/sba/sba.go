// Package sba is an executable SBA*-style binary reduction protocol — the
// Turpin–Coan two-step reduction for n > 3t as adapted by the Dusk SBA*
// agreement loop. Each round runs two reduction steps: step 1 votes the
// current estimate and threshold-collects votes until a bit is *locked*
// (n-t distinct senders), step 2 propagates a single candidate bit (the
// first-locked one) and collects n-t candidates that are justified by a
// local lock. A uniform candidate set reduces the round to that bit; a mixed
// set falls back to the round's default.
//
// Two deliberate adaptations keep the reduction sound in full asynchrony,
// where Turpin–Coan's synchronous-round counting argument is unavailable:
//
//   - Step 1 amplifies votes Bracha-style (echo a bit once t+1 distinct
//     senders vote it), so a locked bit is always justified by a correct
//     vote and locks propagate to every correct process.
//   - The default value rotates with the round parity (round r defaults to
//     r mod 2) instead of being a fixed "empty block": a process decides the
//     reduced bit only when it equals the round default, so processes that
//     saw a mixed candidate set and fell back to the default adopt exactly
//     the bit any uniform-set process decided. A fixed default would let a
//     decided bit and the fallback diverge, which is safe only under
//     synchronous rounds.
//
// Processes run over the asynchronous simulated network of internal/network
// and are cross-validated against the multi-round threshold automaton
// specs/sba.ta (internal/models.SBA) the same way dbft is validated against
// its specs.
package sba

import (
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Rules is the reduction as a rules value of the protocol kit's two-step
// binary engine: a bit locks at n-t distinct VOTE(v), and the CAND
// announcement is the first-locked bit, justified at a receiver by a local
// lock of the same bit. The thresholds need n > 3t (two n-t quorums
// intersect in a correct process), so the rules are Resilient.
var Rules = protocol.BinaryRules{
	Name:            "sba",
	Vote:            network.MsgVote,
	Announce:        network.MsgCand,
	Collect:         func(n, t int) int { return n - t },
	Resilient:       true,
	Retransmissions: obs.Default.Counter("sba", "retransmissions"),
}

// Lies is the reduction's contribution to the Byzantine scaffold: an
// equivocator sends VOTE v and CAND v to its v side, pushing the two sides
// toward locking and choosing opposite bits; a liar random votes and a
// candidate drawn from {0, 1, 2}, so the receiver's malformed-content
// sanitization is exercised too.
var Lies = Rules.Lies()

// Process is a correct SBA reduction process. Its CollectOrder[r] lists the
// bits in step-1 lock order for round r; the first entry is the candidate
// the process propagated.
type Process = protocol.Binary
