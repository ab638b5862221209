package protocol

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
)

// Silent is the crash-like Byzantine strategy: it never sends anything.
type Silent struct {
	Id network.ProcID
}

var _ network.Process = (*Silent)(nil)

// ID implements network.Process.
func (s *Silent) ID() network.ProcID { return s.Id }

// Start implements network.Process.
func (s *Silent) Start(network.Sender) {}

// Deliver implements network.Process.
func (s *Silent) Deliver(network.Message, network.Sender) {}

// Adversary is the scaffold of every active Byzantine strategy: at Start and
// on the first message of each round it observes, it calls Emit once per
// other process. What a round's lies look like is the protocol's business
// (Lies); when and to whom they go out is decided here.
type Adversary struct {
	Id  network.ProcID
	All []network.ProcID
	// Emit sends one peer this process's traffic for one round. m arrives
	// with From, To and Round filled in.
	Emit func(m network.Message, send network.Sender)

	sent map[int]bool
}

var _ network.Process = (*Adversary)(nil)

// ID implements network.Process.
func (a *Adversary) ID() network.ProcID { return a.Id }

// Start implements network.Process.
func (a *Adversary) Start(send network.Sender) { a.emit(0, send) }

// Deliver implements network.Process: the first message of each round
// triggers that round's emission.
func (a *Adversary) Deliver(m network.Message, send network.Sender) { a.emit(m.Round, send) }

func (a *Adversary) emit(round int, send network.Sender) {
	if a.sent == nil {
		a.sent = make(map[int]bool)
	}
	if a.sent[round] {
		return
	}
	a.sent[round] = true
	for _, to := range a.All {
		if to != a.Id {
			a.Emit(network.Message{From: a.Id, To: to, Round: round}, send)
		}
	}
}

// Strategies is the Byzantine strategy vocabulary, in the order the seeded
// campaign generators index it.
var Strategies = []string{"silent", "equivocator", "liar"}

// Lies is what a protocol contributes to the Byzantine scaffold: the content
// of one peer's share of a round, for each active strategy. m arrives with
// From, To and Round filled in.
type Lies struct {
	// Split sends the round's messages all carrying bit v — what an
	// equivocator tells the peers on its v side.
	Split func(m network.Message, v int, send network.Sender)
	// Random sends seeded random round content — the fuzzing adversary.
	Random func(m network.Message, rng *rand.Rand, send network.Sender)
}

// Equivocator is the classic split-brain strategy: for every round it
// observes it tells the processes selected by zeroSide that everything is 0
// and the rest that everything is 1. With f <= t it cannot break safety;
// with f > n/3 it drives disagreement.
func (l Lies) Equivocator(id network.ProcID, all []network.ProcID, zeroSide func(network.ProcID) bool) *Adversary {
	return &Adversary{Id: id, All: all, Emit: func(m network.Message, send network.Sender) {
		v := 1
		if zeroSide != nil && zeroSide(m.To) {
			v = 0
		}
		l.Split(m, v, send)
	}}
}

// Liar sends random content to every process for every round it observes —
// the fuzzing adversary for property-based tests.
//
// rng must be private to this process: in the bus's native drain mode each
// Byzantine process runs on its partition's goroutine, so a *rand.Rand
// shared between two liars is a data race (and nondeterministic even when
// the race detector stays quiet). Strategy derives one seeded PRNG per id.
func (l Lies) Liar(id network.ProcID, all []network.ProcID, rng *rand.Rand) *Adversary {
	return &Adversary{Id: id, All: all, Emit: func(m network.Message, send network.Sender) {
		l.Random(m, rng, send)
	}}
}

// Strategy builds the named strategy (one of Strategies) for process id. An
// equivocator tells ids below zeroBelow the 0 story. A liar's coins derive
// from seed and id — decoupled from the fault injector's and the scheduler's
// streams, and never shared between processes.
func (l Lies) Strategy(name string, id network.ProcID, all []network.ProcID, zeroBelow int, seed int64) (network.Process, error) {
	switch name {
	case "silent":
		return &Silent{Id: id}, nil
	case "equivocator":
		return l.Equivocator(id, all, func(p network.ProcID) bool { return int(p) < zeroBelow }), nil
	case "liar":
		return l.Liar(id, all, rand.New(rand.NewSource(seed+1+1_000_003*int64(id)))), nil
	}
	return nil, fmt.Errorf("unknown byzantine strategy %q", name)
}
