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
	MaxRounds int
}

// Validate checks the configuration. The reduction thresholds require
// n > 3t (quorum intersection of two n-t quorums contains a correct
// process).
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sba: n must be positive, got %d", c.N)
	}
	if c.T < 0 {
		return fmt.Errorf("sba: t must be nonnegative, got %d", c.T)
	}
	if c.N <= 3*c.T {
		return fmt.Errorf("sba: reduction requires n > 3t, got n=%d t=%d", c.N, c.T)
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("sba: MaxRounds must be positive, got %d", c.MaxRounds)
	}
	return nil
}

// Rules is the reduction as a rules value of the protocol kit's two-step
// binary engine: a bit locks at n-t distinct VOTE(v), and the CAND
// announcement is the first-locked bit, justified at a receiver by a local
// lock of the same bit.
var Rules = protocol.BinaryRules{
	Name:            "sba",
	Vote:            network.MsgVote,
	Announce:        network.MsgCand,
	Collect:         func(n, t int) int { return n - t },
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

// NewProcess builds a correct process with the given input bit.
func NewProcess(id network.ProcID, input int, cfg Config, all []network.ProcID) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return protocol.NewBinary(&Rules, id, input, 0, cfg.N, cfg.T, cfg.MaxRounds, all)
}

// Processes builds correct processes with the given inputs and ids
// 0..len(inputs)-1; ids beyond are left to Byzantine strategies.
func Processes(cfg Config, inputs []int, all []network.ProcID) ([]*Process, error) {
	return protocol.Processes(inputs, func(id network.ProcID, input int) (*Process, error) {
		return NewProcess(id, input, cfg, all)
	})
}
