// Package rbc implements Bracha's reliable broadcast, the classic
// t < n/3 Byzantine-tolerant broadcast primitive that blockchain consensus
// protocols (including Red Belly's vector consensus) use to disseminate
// proposals. Its guarantees mirror the bv-broadcast properties the paper
// verifies:
//
//   - validity: if a correct proposer broadcasts v, every correct process
//     delivers v for that proposer;
//   - agreement: no two correct processes deliver different payloads for the
//     same proposer (even a Byzantine one);
//   - integrity: at most one delivery per proposer.
//
// The protocol: the proposer sends PROP(v); on the first PROP from a
// proposer a process echoes ECHO(v); on an echo quorum of ⌈(n+t+1)/2⌉
// matching ECHOs (or t+1 matching READYs) it sends READY(v); on 2t+1
// matching READYs it delivers v. The echo quorum is what guarantees
// agreement for an equivocating proposer: two quorums for different
// payloads would have to intersect in a correct process, which echoes at
// most once per proposer. (At the minimal n = 3t+1 the quorum equals 2t+1;
// for larger n it is strictly larger, and using 2t+1 there would be a
// classic split-brain bug.)
//
// The package stands alone: it carries its own Message type, because the
// simulator's network.Message holds only the binary consensus fields (see
// DESIGN.md § "The Message layout"), and no protocol in this repository
// runs it over the bus.
package rbc

import (
	"fmt"

	"repro/internal/network"
)

// Kind is one step of the broadcast.
type Kind uint8

const (
	// Prop introduces the proposer's payload.
	Prop Kind = iota + 1
	// Echo repeats the first payload a process saw from a proposer.
	Echo
	// Ready vouches that a payload gathered an echo quorum.
	Ready
)

// Message is one reliable-broadcast message.
type Message struct {
	From, To network.ProcID
	Kind     Kind
	Proposer network.ProcID
	Payload  string
}

// Sender hands a message to the transport.
type Sender func(Message)

type key struct {
	proposer network.ProcID
	payload  string
}

// RBC is the reliable-broadcast component of one host process. The host
// forwards messages to Handle and receives deliveries through the OnDeliver
// callback.
type RBC struct {
	Me  network.ProcID
	N   int
	T   int
	All []network.ProcID
	// OnDeliver is invoked exactly once per proposer, with the delivered
	// payload.
	OnDeliver func(proposer network.ProcID, payload string, send Sender)

	echoed    map[network.ProcID]bool // echoed some payload of this proposer
	readied   map[key]bool
	echoes    map[key]map[network.ProcID]bool
	readies   map[key]map[network.ProcID]bool
	delivered map[network.ProcID]bool
}

func (r *RBC) init() {
	if r.echoes == nil {
		r.echoed = make(map[network.ProcID]bool)
		r.readied = make(map[key]bool)
		r.echoes = make(map[key]map[network.ProcID]bool)
		r.readies = make(map[key]map[network.ProcID]bool)
		r.delivered = make(map[network.ProcID]bool)
	}
}

// Delivered reports whether a payload was delivered for the proposer.
func (r *RBC) Delivered(proposer network.ProcID) bool {
	r.init()
	return r.delivered[proposer]
}

// Propose reliably broadcasts the payload with this process as proposer.
func (r *RBC) Propose(payload string, send Sender) {
	r.init()
	r.broadcast(send, Message{From: r.Me, Kind: Prop, Proposer: r.Me, Payload: payload})
}

func (r *RBC) broadcast(send Sender, m Message) {
	for _, to := range r.All {
		m.To = to
		send(m)
	}
}

// Handle consumes a reliable-broadcast message; it reports whether the
// message belonged to the protocol (false = not a known kind).
func (r *RBC) Handle(m Message, send Sender) (bool, error) {
	r.init()
	switch m.Kind {
	case Prop:
		// Only the proposer itself may introduce its payload.
		if m.From != m.Proposer {
			return true, nil // forged introduction: ignored
		}
		r.maybeEcho(key{m.Proposer, m.Payload}, send)
	case Echo:
		k := key{m.Proposer, m.Payload}
		r.record(r.echoes, k, m.From)
		if len(r.echoes[k]) >= r.echoQuorum() {
			r.maybeReady(k, send)
		}
	case Ready:
		k := key{m.Proposer, m.Payload}
		r.record(r.readies, k, m.From)
		// Ready amplification: t+1 READYs prove a correct process saw an
		// echo quorum, so it is safe to join.
		if len(r.readies[k]) >= r.T+1 {
			r.maybeReady(k, send)
		}
		if len(r.readies[k]) >= 2*r.T+1 && !r.delivered[k.proposer] {
			r.delivered[k.proposer] = true
			if r.OnDeliver == nil {
				return true, fmt.Errorf("rbc: delivery with no OnDeliver handler")
			}
			r.OnDeliver(k.proposer, k.payload, send)
		}
	default:
		return false, nil
	}
	return true, nil
}

// echoQuorum is ⌈(n+t+1)/2⌉: any two echo quorums intersect in a correct
// process.
func (r *RBC) echoQuorum() int {
	return (r.N+r.T)/2 + 1
}

func (r *RBC) record(m map[key]map[network.ProcID]bool, k key, from network.ProcID) {
	if m[k] == nil {
		m[k] = make(map[network.ProcID]bool)
	}
	m[k][from] = true
}

// maybeEcho sends ECHO for the proposer's payload, once per proposer (a
// Byzantine proposer sending two payloads gets at most one echo from each
// correct process, which is what prevents two ready quorums).
func (r *RBC) maybeEcho(k key, send Sender) {
	if r.echoed[k.proposer] {
		return
	}
	r.echoed[k.proposer] = true
	r.broadcast(send, Message{From: r.Me, Kind: Echo, Proposer: k.proposer, Payload: k.payload})
}

func (r *RBC) maybeReady(k key, send Sender) {
	if r.readied[k] {
		return
	}
	r.readied[k] = true
	r.broadcast(send, Message{From: r.Me, Kind: Ready, Proposer: k.proposer, Payload: k.payload})
}
