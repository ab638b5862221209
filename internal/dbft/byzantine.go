package dbft

import (
	"math/rand"

	"repro/internal/network"
	"repro/internal/protocol"
)

// Lies is dbft's contribution to the Byzantine scaffold of the protocol kit:
// Lies.Equivocator, Lies.Liar and Lies.Strategy build the strategies.
var Lies = protocol.Lies{
	// An equivocator sends (BV, v) and aux {v} to its v side.
	Split: func(m network.Message, v int, send network.Sender) {
		m.Kind, m.Value = network.MsgBV, v
		send(m)
		m.Kind, m.Value, m.Set = network.MsgAux, -1, []int{v}
		send(m)
	},
	// A liar sends uniformly random BV values (sometimes both) and a random
	// aux set.
	Random: func(m network.Message, rng *rand.Rand, send network.Sender) {
		// These literal backing arrays are shared across every recipient, round
		// and liar instance; the network's copy-on-enqueue is what keeps one
		// in-flight copy's Set from aliasing another's.
		sets := [][]int{{0}, {1}, {0, 1}}
		m.Kind, m.Value = network.MsgBV, rng.Intn(2)
		send(m)
		if rng.Intn(2) == 0 {
			m.Value = rng.Intn(2)
			send(m)
		}
		m.Kind, m.Value, m.Set = network.MsgAux, -1, sets[rng.Intn(len(sets))]
		send(m)
	},
}
