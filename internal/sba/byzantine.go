package sba

import (
	"math/rand"

	"repro/internal/network"
	"repro/internal/protocol"
)

// Lies is the reduction's contribution to the Byzantine scaffold of the
// protocol kit: Lies.Equivocator, Lies.Liar and Lies.Strategy build the
// strategies.
var Lies = protocol.Lies{
	// An equivocator sends VOTE v and CAND v to its v side, pushing the two
	// sides toward locking and choosing opposite bits.
	Split: func(m network.Message, v int, send network.Sender) {
		m.Kind, m.Value = network.MsgVote, v
		send(m)
		m.Kind = network.MsgCand
		send(m)
	},
	// A liar sends uniformly random votes (sometimes both bits — legal even
	// for correct processes) and a candidate drawn from {0, 1, 2}, so the
	// receiver's malformed-content sanitization is exercised too.
	Random: func(m network.Message, rng *rand.Rand, send network.Sender) {
		m.Kind, m.Value = network.MsgVote, rng.Intn(2)
		send(m)
		if rng.Intn(2) == 0 {
			m.Value = rng.Intn(2)
			send(m)
		}
		m.Kind, m.Value = network.MsgCand, rng.Intn(3)
		send(m)
	},
}
