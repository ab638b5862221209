package dbft

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/protocol"
)

// Lemma7Result records one round of the Appendix B non-termination
// execution.
type Lemma7Result struct {
	Round     int
	Estimates []int // estimate of each correct process at the END of the round
}

// RunLemma7 reproduces Lemma 7 (Appendix B): without the fairness assumption
// of Section 3.3, Algorithm 1 does not terminate. It drives three correct
// processes (n = 4, t = 1, the fourth process Byzantine) through the
// adversarial schedule of the proof for the given number of rounds: the
// correct estimates cycle with period two and nobody ever decides.
//
// Per round with parity q and w = 1-q, two correct processes hold w and one
// holds q. The adversary and the message schedule arrange that
//
//   - one w-holder ("singleton") bv-delivers only w and sees n-t aux
//     messages {w}: qualifiers = {w}, w != q, so it keeps estimate w
//     without deciding;
//   - the other w-holder ("mixed") and the q-holder bv-deliver both values
//     and see mixed aux messages: qualifiers = {0,1}, so they adopt the
//     parity q.
//
// The multiset of estimates flips between {w,q,q} and {q,w,w} forever.
func RunLemma7(rounds int) ([]Lemma7Result, error) {
	const (
		n   = 4
		t   = 1
		byz = network.ProcID(3)
	)
	if rounds < 1 {
		return nil, fmt.Errorf("dbft: rounds must be positive")
	}
	cfg := protocol.Config{N: n, T: t, MaxRounds: rounds + 1}
	all := protocol.AllIDs(n)

	// Round 0 has parity q=0, w=1: inputs give two w-holders (p0, p1) and
	// one q-holder (p2).
	procs, err := Rules.Processes(cfg, []int{1, 1, 0}, all)
	if err != nil {
		return nil, err
	}
	byID := map[network.ProcID]*Process{}
	for _, p := range procs {
		byID[p.ID()] = p
	}

	// The message pool: every send by a correct process is captured here and
	// delivered under the adversary's schedule. Reliability holds — every
	// message is eventually delivered (leftovers drain at the end of each
	// round).
	type key struct {
		from, to network.ProcID
		round    int
		kind     network.MsgKind
		value    int // BV value; -1 for aux
	}
	pool := map[key][]network.Message{}
	var send network.Sender
	send = func(m network.Message) {
		if m.To == byz {
			return // the adversary needs no input
		}
		v := m.Value
		if m.Kind == network.MsgAux {
			v = -1
		}
		k := key{m.From, m.To, m.Round, m.Kind, v}
		pool[k] = append(pool[k], m)
	}
	// deliver hands one pooled message to its target (erroring loudly if the
	// schedule asks for a message that was never sent — a script bug).
	deliver := func(from, to network.ProcID, round int, kind network.MsgKind, value int) error {
		k := key{from, to, round, kind, value}
		msgs := pool[k]
		if len(msgs) == 0 {
			return fmt.Errorf("dbft: lemma7 schedule expected %v(%d) %d->%d in round %d but none is in flight",
				kind, value, from, to, round)
		}
		m := msgs[0]
		pool[k] = msgs[1:]
		byID[to].Deliver(m, send)
		return nil
	}
	// byzSend injects an adversary message directly.
	byzSend := func(to network.ProcID, round int, kind network.MsgKind, value int, set network.ValueSet) {
		byID[to].Deliver(network.Message{
			From: byz, To: to, Round: round, Kind: kind, Value: value, Set: set,
		}, send)
	}

	for _, p := range procs {
		p.Start(send)
	}

	// Role assignment for round 0.
	ps, pm, pq := network.ProcID(0), network.ProcID(1), network.ProcID(2)

	var results []Lemma7Result
	for r := 0; r < rounds; r++ {
		q := r % 2
		w := 1 - q

		// Phase A: the singleton delivers w (its own broadcast, the mixed
		// holder's, and the adversary's) and broadcasts aux {w}.
		byzSend(ps, r, network.MsgBV, w, 0)
		if err := deliver(ps, ps, r, network.MsgBV, w); err != nil {
			return nil, err
		}
		if err := deliver(pm, ps, r, network.MsgBV, w); err != nil {
			return nil, err
		}

		// Phase B: the mixed holder delivers w the same way.
		byzSend(pm, r, network.MsgBV, w, 0)
		if err := deliver(ps, pm, r, network.MsgBV, w); err != nil {
			return nil, err
		}
		if err := deliver(pm, pm, r, network.MsgBV, w); err != nil {
			return nil, err
		}

		// Phase C: the mixed holder sees t+1 distinct (BV, q) — from the
		// q-holder and the adversary — echoes q, and delivers it on its own
		// echo; then the q-holder delivers q (q-holder, adversary, echo).
		if err := deliver(pq, pm, r, network.MsgBV, q); err != nil {
			return nil, err
		}
		byzSend(pm, r, network.MsgBV, q, 0)
		if err := deliver(pm, pm, r, network.MsgBV, q); err != nil {
			return nil, err
		}
		byzSend(pq, r, network.MsgBV, q, 0)
		if err := deliver(pq, pq, r, network.MsgBV, q); err != nil {
			return nil, err
		}
		if err := deliver(pm, pq, r, network.MsgBV, q); err != nil {
			return nil, err
		}

		// The q-holder also delivers w so mixed aux sets qualify later.
		byzSend(pq, r, network.MsgBV, w, 0)
		if err := deliver(ps, pq, r, network.MsgBV, w); err != nil {
			return nil, err
		}
		if err := deliver(pm, pq, r, network.MsgBV, w); err != nil {
			return nil, err
		}

		// Phase D: aux deliveries. The singleton sees {w} three times
		// (itself, the mixed holder, the adversary): qualifiers {w}.
		if err := deliver(ps, ps, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		if err := deliver(pm, ps, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		byzSend(ps, r, network.MsgAux, -1, network.SetOf(w))

		// The mixed holder sees {w},{w},{q}: qualifiers {0,1}.
		if err := deliver(pm, pm, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		if err := deliver(ps, pm, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		if err := deliver(pq, pm, r, network.MsgAux, -1); err != nil {
			return nil, err
		}

		// The q-holder sees {q},{w},{w}: qualifiers {0,1}.
		if err := deliver(pq, pq, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		if err := deliver(ps, pq, r, network.MsgAux, -1); err != nil {
			return nil, err
		}
		if err := deliver(pm, pq, r, network.MsgAux, -1); err != nil {
			return nil, err
		}

		// All three must have advanced.
		for _, p := range procs {
			if p.Round() != r+1 {
				return nil, fmt.Errorf("dbft: lemma7 round %d: process %d stuck in round %d", r, p.ID(), p.Round())
			}
			if _, _, decided := p.Decided(); decided {
				return nil, fmt.Errorf("dbft: lemma7 round %d: process %d decided — schedule broken", r, p.ID())
			}
		}

		// Reliability: drain every leftover message of rounds <= r (their
		// deliveries only touch closed rounds).
		for drained := true; drained; {
			drained = false
			for k, msgs := range pool {
				if k.round > r || len(msgs) == 0 {
					continue
				}
				m := msgs[0]
				pool[k] = msgs[1:]
				byID[k.to].Deliver(m, send)
				drained = true
			}
		}

		results = append(results, Lemma7Result{
			Round:     r,
			Estimates: []int{byID[0].Estimate(), byID[1].Estimate(), byID[2].Estimate()},
		})

		// Rotate roles: the singleton kept w (the next round's parity), the
		// other two adopted q (the next round's 1-parity): they are the new
		// w-holders.
		ps, pm, pq = pm, pq, ps
	}
	return results, nil
}
