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
	// Candidates in arrival order (candOrder), preserving
	// first-candidate-wins semantics across a recovery.
	e.Uvarint(uint64(len(st.candOrder)))
	for _, q := range st.candOrder {
		e.Int(int(q))
		e.Int(st.candidates[q])
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
	rounds := protocol.DecMap(d, "round", decodeRoundState)
	outbox := d.Messages()
	if err := d.Finish("snapshot"); err != nil {
		return fmt.Errorf("sba: %w", err)
	}
	p.est, p.round, p.rounds = est, round, rounds
	p.decided, p.decision, p.decidedRound = decided, decision, decidedRound
	p.EstimateHistory, p.LockOrder = history, order
	p.out.Reboot(outbox)
	return nil
}

func decodeRoundState(d *protocol.Dec) *roundState {
	st := newRoundState()
	st.voteSenders[0] = d.ProcSet("vote sender")
	st.voteSenders[1] = d.ProcSet("vote sender")
	d.Flags(&st.voted[0], &st.voted[1], &st.locked[0], &st.locked[1], &st.candSent)
	st.lockOrder = d.Ints()
	for i, n := 0, d.Len(); i < n && d.Err() == nil; i++ {
		q := network.ProcID(d.Int())
		b := d.Int()
		if _, dup := st.candidates[q]; dup {
			d.Fail("duplicate candidate %d", q)
		}
		// Deliver only ever stores binary candidates, and the handlers index
		// locked by them.
		if b != 0 && b != 1 {
			d.Fail("non-binary candidate %d", b)
		}
		st.candidates[q] = b
		st.candOrder = append(st.candOrder, q)
	}
	if d.Err() == nil {
		st.recountJustified()
	}
	return st
}
