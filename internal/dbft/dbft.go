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
	"fmt"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Config carries the static parameters of a run.
type Config struct {
	N int // total number of processes
	T int // tolerated Byzantine processes (algorithm constant)
	// MaxRounds caps execution; a correct process stops advancing past it.
	// The decision rule itself needs no cap (Alg. 1 loops forever to help
	// laggards; the cap keeps simulations finite).
	MaxRounds int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dbft: n must be positive, got %d", c.N)
	}
	if c.T < 0 {
		return fmt.Errorf("dbft: t must be nonnegative, got %d", c.T)
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("dbft: MaxRounds must be positive, got %d", c.MaxRounds)
	}
	return nil
}

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

// NewProcess builds a correct process with the given input value.
func NewProcess(id network.ProcID, input int, cfg Config, all []network.ProcID) (*Process, error) {
	return NewProcessInstance(id, input, cfg, all, 0)
}

// NewProcessInstance builds a correct process bound to a protocol instance:
// it tags outgoing messages with the instance and ignores messages of other
// instances. The vector consensus runs one instance per proposer.
func NewProcessInstance(id network.ProcID, input int, cfg Config, all []network.ProcID, instance int) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return protocol.NewBinary(&Rules, id, input, instance, cfg.N, cfg.T, cfg.MaxRounds, all)
}

// Processes builds n-f correct processes with the given inputs and ids
// 0..len(inputs)-1; ids beyond are left to Byzantine strategies.
func Processes(cfg Config, inputs []int, all []network.ProcID) ([]*Process, error) {
	return protocol.Processes(inputs, func(id network.ProcID, input int) (*Process, error) {
		return NewProcess(id, input, cfg, all)
	})
}

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
