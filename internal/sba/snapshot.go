package sba

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/protocol"
)

// This file is the field-by-field body of a Process's durable state inside
// the protocol kit's snapshot envelope. As with dbft, persisting it after
// every delivery is a safety requirement: a replica that crashed after
// broadcasting CAND and recovered from an older state could lock the bits in
// a different order and announce a conflicting candidate for the same round
// (see protocol.Replica).

// snapshotVersion guards the layout; bump on any change.
const snapshotVersion = 1

// SnapshotBytes implements protocol.Replica.
func (p *Process) SnapshotBytes() []byte {
	e := protocol.NewEnc(snapshotVersion)
	e.Int(p.est)
	e.Int(p.round)
	e.Bool(p.decided)
	e.Int(p.decision)
	e.Int(p.decidedRound)
	e.Ints(p.EstimateHistory)
	protocol.EncMap(e, p.LockOrder, (*protocol.Enc).Ints)
	protocol.EncMap(e, p.rounds, encodeRoundState)
	e.Messages(p.out.Messages())
	return e.Bytes()
}

func encodeRoundState(e *protocol.Enc, st *roundState) {
	e.ProcSet(st.voteSenders[0])
	e.ProcSet(st.voteSenders[1])
	e.Flags(st.voted[0], st.voted[1], st.locked[0], st.locked[1], st.candSent)
	e.Ints(st.lockOrder)
	// Candidates in arrival order, preserving first-candidate-wins
	// semantics across a recovery.
	e.Uvarint(uint64(st.candidates.Len()))
	for _, q := range st.candidates.Order() {
		b, _ := st.candidates.Get(q)
		e.Int(int(q))
		e.Int(int(b))
	}
}

// RestoreBytes implements protocol.Replica. It never panics on malformed
// input (fuzzed in snapshot_test.go).
func (p *Process) RestoreBytes(b []byte) error {
	d := protocol.NewDec(b, snapshotVersion)
	est := d.Int()
	round := d.Int()
	decided := d.Bool()
	decision := d.Int()
	decidedRound := d.Int()
	history := d.Ints()
	order := protocol.DecMap(d, "lock-order round", (*protocol.Dec).Ints)
	rounds := protocol.DecMap(d, "round", func(d *protocol.Dec) *roundState {
		return decodeRoundState(d, p.cfg.N)
	})
	outbox := d.Messages()
	if err := d.Finish("snapshot"); err != nil {
		return fmt.Errorf("sba: %w", err)
	}
	p.est, p.round, p.rounds, p.last = est, round, rounds, nil
	p.decided, p.decision, p.decidedRound = decided, decision, decidedRound
	p.EstimateHistory, p.LockOrder = history, order
	p.out.Reboot(outbox)
	return nil
}

// decodeRoundState reads one round's state of a process among n.
func decodeRoundState(d *protocol.Dec, n int) *roundState {
	st := newRoundState(n)
	st.voteSenders[0] = d.ProcSet("vote sender", n)
	st.voteSenders[1] = d.ProcSet("vote sender", n)
	d.Flags(&st.voted[0], &st.voted[1], &st.locked[0], &st.locked[1], &st.candSent)
	st.lockOrder = d.Ints()
	for i, count := 0, d.Len(); i < count && d.Err() == nil; i++ {
		q := network.ProcID(d.Int())
		b := d.Int()
		switch {
		case d.Err() != nil:
		case q < 0 || int(q) >= n:
			d.Fail("candidate sender %d outside [0, %d)", q, n)
		case b != 0 && b != 1:
			// Deliver only ever stores binary candidates, and the handlers
			// index locked by them.
			d.Fail("non-binary candidate %d", b)
		case !st.candidates.Add(q, uint8(b)):
			d.Fail("duplicate candidate %d", q)
		}
	}
	if d.Err() == nil {
		st.recountJustified()
	}
	return st
}
