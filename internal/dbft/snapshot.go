package dbft

import (
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/protocol"
)

// This file is the field-by-field body of a Process's durable state inside
// the protocol kit's snapshot envelope (see protocol.Replica for why the
// fault plane persists it after every delivery).

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
	protocol.EncMap(e, p.DeliveryOrder, (*protocol.Enc).Ints)
	protocol.EncMap(e, p.rounds, encodeRoundState)
	e.Messages(p.out.Messages())
	return e.Bytes()
}

func encodeRoundState(e *protocol.Enc, st *roundState) {
	e.ProcSet(st.bvSenders[0])
	e.ProcSet(st.bvSenders[1])
	e.Flags(st.echoed[0], st.echoed[1], st.contestants[0], st.contestants[1], st.auxSent)
	// favorites in arrival order, preserving first-aux-wins semantics
	// across a recovery.
	e.Uvarint(uint64(st.favorites.Len()))
	for _, q := range st.favorites.Order() {
		set, _ := st.favorites.Get(q)
		e.Int(int(q))
		e.Ints(maskSets[set])
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
	order := protocol.DecMap(d, "delivery-order round", (*protocol.Dec).Ints)
	rounds := protocol.DecMap(d, "round", func(d *protocol.Dec) *roundState {
		return decodeRoundState(d, p.cfg.N)
	})
	outbox := d.Messages()
	if err := d.Finish("snapshot"); err != nil {
		return fmt.Errorf("dbft: %w", err)
	}
	p.est, p.round, p.rounds, p.last = est, round, rounds, nil
	p.decided, p.decision, p.decidedRound = decided, decision, decidedRound
	p.EstimateHistory, p.DeliveryOrder = history, order
	p.out.Reboot(outbox)
	return nil
}

// decodeRoundState reads one round's state of a process among n.
func decodeRoundState(d *protocol.Dec, n int) *roundState {
	st := newRoundState(n)
	st.bvSenders[0] = d.ProcSet("bv sender", n)
	st.bvSenders[1] = d.ProcSet("bv sender", n)
	d.Flags(&st.echoed[0], &st.echoed[1], &st.contestants[0], &st.contestants[1], &st.auxSent)
	for i, count := 0, d.Len(); i < count && d.Err() == nil; i++ {
		q := network.ProcID(d.Int())
		set := d.Ints()
		switch {
		case d.Err() != nil:
		case q < 0 || int(q) >= n:
			d.Fail("favorite sender %d outside [0, %d)", q, n)
		case set == nil || !slices.Equal(set, sanitizeSet(set)):
			// Deliver only ever stores sanitized, nonempty sets.
			d.Fail("malformed favorite set %v", set)
		case !st.favorites.Add(q, maskOf(set)):
			d.Fail("duplicate favorite %d", q)
		}
	}
	if d.Err() == nil {
		st.recountValidFavorites()
	}
	return st
}
