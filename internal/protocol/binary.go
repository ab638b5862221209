package protocol

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/network"
	"repro/internal/obs"
)

// This file is the two-step binary round engine every executable front-end
// runs. A round is an inner threshold broadcast — vote the estimate, echo a
// bit once t+1 distinct senders voted it, collect it at a threshold — feeding
// an outer exchange of n-t justified announcements with a parity default: a
// process waits for n-t announcements whose bits it has all collected itself,
// reduces to the one bit they name (deciding it when it equals the round
// parity) or, when they name both, adopts the parity. Algorithm 1 over the
// Fig. 1 bv-broadcast (internal/dbft) and the SBA* reduction (internal/sba)
// are two BinaryRules values over it.

// BinaryRules is what tells one two-step binary protocol from another. A
// front-end declares one package-level value and every replica points at it;
// thresholds derived from it are ints fixed when the replica is built.
type BinaryRules struct {
	// Name prefixes the replica's errors.
	Name string
	// Vote is the step-1 kind: a bit in Value.
	Vote network.MsgKind
	// Announce is the step-2 kind, broadcast once per round when the first
	// bit is collected.
	Announce network.MsgKind
	// Collect is the step-1 collect threshold for n processes tolerating t.
	Collect func(n, t int) int
	// AnnounceSet says an announcement is the whole collected set in Set,
	// with Value -1 (dbft's AUX). Otherwise it is the first-collected bit in
	// Value (sba's CAND), and each round's snapshot repeats the round's
	// collect order, the order its announcement is read from.
	AnnounceSet bool
	// Resilient says the rules are sound only for n > 3t, and Validate
	// refuses any other configuration (sba: two n-t quorums must intersect
	// in a correct process). Without it n <= 3t runs too, as dbft's
	// counterexample executions do.
	Resilient bool
	// Retransmissions counts the outbox re-broadcasts of every replica.
	Retransmissions *obs.Counter
}

// Config carries the static parameters of a run.
type Config struct {
	N int // total number of processes
	T int // tolerated Byzantine processes (algorithm constant)
	// MaxRounds caps execution; a correct process stops advancing past it.
	// The decision rule itself needs no cap (Alg. 1 loops forever to help
	// laggards; the cap keeps simulations finite).
	MaxRounds int
}

// Validate checks a configuration against the rules; its errors are
// prefixed with the rules' name.
func (r *BinaryRules) Validate(cfg Config) error {
	switch {
	case cfg.N <= 0:
		return fmt.Errorf("%s: n must be positive, got %d", r.Name, cfg.N)
	case cfg.T < 0:
		return fmt.Errorf("%s: t must be nonnegative, got %d", r.Name, cfg.T)
	case r.Resilient && cfg.N <= 3*cfg.T:
		return fmt.Errorf("%s: resilience requires n > 3t, got n=%d t=%d", r.Name, cfg.N, cfg.T)
	case cfg.MaxRounds <= 0:
		return fmt.Errorf("%s: MaxRounds must be positive, got %d", r.Name, cfg.MaxRounds)
	}
	return nil
}

// valueMask is a binary value set as a message carries it. Every
// announcement is read as one: a nonempty mask, so "the announced bits are
// all collected" is one test against the round's collected mask.
type valueMask = network.ValueSet

// setMask returns the mask an announced set stands for, or 0 when the set
// is empty or names a value other than 0 and 1.
func setMask(set network.ValueSet) valueMask {
	if set&network.SetMalformed != 0 {
		return 0
	}
	return set
}

// bitMask returns the mask {v} of a bit, or 0 when v is not 0 or 1.
func bitMask(v int) valueMask {
	if v != 0 && v != 1 {
		return 0
	}
	return 1 << v
}

// binaryRound holds one round's message state. Communication closure
// (Section 2) is one state per round: early messages accumulate here and take
// effect once the process enters the round.
type binaryRound struct {
	// senders[v] = distinct processes from which (Vote, v) was received.
	senders [2]SenderSet
	// echoed holds the bits this process has voted; collected the bits that
	// reached the collect threshold (dbft's contestants, sba's locks).
	echoed, collected valueMask
	announced         bool
	// firsts holds, per sender, the mask of its first announcement, and the
	// senders in arrival order.
	firsts FirstTable
	// valid counts senders whose announcement is a subset of collected — the
	// ones the exit scan would accept. collected only grows, so the count is
	// bumped per arrival and recounted on the (at most 2 per round) bits
	// collected. It lets tryExit skip its O(n) scan until the n-t threshold
	// is reachable; without the gate that scan runs on every delivery, which
	// at thousands of replicas dominates the whole simulation.
	valid int
}

func newBinaryRound(n int) *binaryRound {
	return &binaryRound{
		senders: [2]SenderSet{NewSenderSet(n), NewSenderSet(n)},
		firsts:  NewFirstTable(n),
	}
}

// recountValid recomputes valid from scratch; called when a bit is collected
// and when a round state is rebuilt from a decoded snapshot.
func (st *binaryRound) recountValid() {
	c := 0
	for _, q := range st.firsts.Order() {
		if mask, _ := st.firsts.Get(q); valueMask(mask)&^st.collected == 0 {
			c++
		}
	}
	st.valid = c
}

// Binary is a correct replica of a two-step binary protocol.
type Binary struct {
	rules   *BinaryRules
	id      network.ProcID
	n       int
	echo    int // t+1
	collect int // rules.Collect(n, t)
	quorum  int // n-t
	max     int // MaxRounds

	est    int
	round  int
	rounds map[int]*binaryRound
	// last caches the entry of rounds that state returned last (lastRound):
	// nearly every delivery reads its round's state three times.
	last      *binaryRound
	lastRound int

	decided      bool
	decision     int
	decidedRound int

	// out records every logical broadcast (votes and announcements, all
	// rounds) and owns the quiet-period timer that re-sends them.
	out Outbox

	// EstimateHistory[r] is the estimate held at the START of round r
	// (diagnostics for the Lemma 7 reproduction).
	EstimateHistory []int
	// CollectOrder[r] lists round r's collected bits in collect order: dbft's
	// bv-delivery order (v-good executions, Def. 2), sba's lock order, whose
	// first entry is the candidate the process announced.
	CollectOrder map[int][]int
}

var _ Replica = (*Binary)(nil)
var _ network.Ticker = (*Binary)(nil)

// NewProcess builds a correct replica under the rules with the given input
// bit, among the processes all.
func (r *BinaryRules) NewProcess(id network.ProcID, input int, cfg Config, all []network.ProcID) (*Binary, error) {
	if err := r.Validate(cfg); err != nil {
		return nil, err
	}
	if input != 0 && input != 1 {
		return nil, fmt.Errorf("%s: input must be binary, got %d", r.Name, input)
	}
	return &Binary{
		rules:        r,
		id:           id,
		n:            cfg.N,
		echo:         cfg.T + 1,
		collect:      r.Collect(cfg.N, cfg.T),
		quorum:       cfg.N - cfg.T,
		max:          cfg.MaxRounds,
		out:          NewOutbox(all, r.Retransmissions),
		est:          input,
		rounds:       map[int]*binaryRound{},
		CollectOrder: map[int][]int{},
	}, nil
}

// Processes builds one correct replica per input with ids
// 0..len(inputs)-1; ids beyond are left to Byzantine strategies.
func (r *BinaryRules) Processes(cfg Config, inputs []int, all []network.ProcID) ([]*Binary, error) {
	out := make([]*Binary, 0, len(inputs))
	for i, in := range inputs {
		p, err := r.NewProcess(network.ProcID(i), in, cfg, all)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ID implements network.Process.
func (p *Binary) ID() network.ProcID { return p.id }

// Decided reports the decision, if any.
func (p *Binary) Decided() (value int, round int, ok bool) {
	return p.decision, p.decidedRound, p.decided
}

// Round returns the current round.
func (p *Binary) Round() int { return p.round }

// Estimate returns the current estimate.
func (p *Binary) Estimate() int { return p.est }

func (p *Binary) state(r int) *binaryRound {
	if p.last != nil && p.lastRound == r {
		return p.last
	}
	st, ok := p.rounds[r]
	if !ok {
		st = newBinaryRound(p.n)
		p.rounds[r] = st
	}
	p.last, p.lastRound = st, r
	return st
}

// Start implements network.Process: enter round 0 and vote the input (Alg. 1
// lines 4-6, Fig. 1 line 2).
func (p *Binary) Start(send network.Sender) {
	p.EstimateHistory = append(p.EstimateHistory, p.est)
	p.vote(p.round, p.est, send)
}

// vote emits (Vote, v) for the round once.
func (p *Binary) vote(round, v int, send network.Sender) {
	st := p.state(round)
	if st.echoed&(1<<v) != 0 {
		return
	}
	st.echoed |= 1 << v
	p.out.Broadcast(send, network.Message{
		From: p.id, Round: round, Kind: p.rules.Vote, Value: v,
	})
}

// Deliver implements network.Process. Only a message that carries *new*
// information is credited as traffic to the retransmission timer (see Timer
// for the liveness wedge a duplicate's credit would open).
func (p *Binary) Deliver(m network.Message, send network.Sender) {
	if m.Round < 0 || m.Round > p.max {
		return
	}
	if m.From < 0 || int(m.From) >= p.n {
		return // a sender outside the process set is malformed input
	}
	// The round state is looked up only for a message that counts: malformed
	// or unknown content must not create one, or it would grow every later
	// snapshot.
	switch m.Kind {
	case p.rules.Vote:
		if m.Value != 0 && m.Value != 1 {
			return // malformed (Byzantine) content is ignored
		}
		if !p.state(m.Round).senders[m.Value].Add(m.From) {
			return // duplicate: nothing new, no traffic credit
		}
	case p.rules.Announce:
		var mask valueMask
		if p.rules.AnnounceSet {
			mask = setMask(m.Set)
		} else {
			mask = bitMask(m.Value)
		}
		if mask == 0 {
			return
		}
		st := p.state(m.Round)
		if !st.firsts.Add(m.From, uint8(mask)) {
			return // only a sender's first announcement counts
		}
		if mask&^st.collected == 0 {
			st.valid++
		}
	default:
		return
	}
	p.out.SawTraffic()
	p.progress(m.Round, send)
}

// progress re-evaluates the guarded statements for a round. Echo and collect
// (Fig. 1 lines 4-7) fire for any round, since they only depend on that
// round's messages; the announcement and the exit fire only for the current
// round.
func (p *Binary) progress(round int, send network.Sender) {
	st := p.state(round)
	for v := 0; v <= 1; v++ {
		if st.senders[v].Len() >= p.echo && st.echoed&(1<<v) == 0 {
			p.vote(round, v, send)
		}
	}
	for v := 0; v <= 1; v++ {
		if st.senders[v].Len() >= p.collect && st.collected&(1<<v) == 0 {
			st.collected |= 1 << v
			p.CollectOrder[round] = append(p.CollectOrder[round], v)
			st.recountValid()
		}
	}

	if round != p.round {
		return
	}
	// Alg. 1 lines 7-8: once a bit is collected, announce (once).
	if !st.announced && st.collected != 0 {
		st.announced = true
		m := network.Message{From: p.id, Round: round, Kind: p.rules.Announce}
		if p.rules.AnnounceSet {
			m.Value, m.Set = -1, st.collected
		} else {
			m.Value = p.CollectOrder[round][0]
		}
		p.out.Broadcast(send, m)
	}
	p.tryExit(send)
}

// tryExit implements Alg. 1 lines 9-14: wait until n-t announcements whose
// bits are all collected, take the union of the first n-t, then decide or
// adopt an estimate by the round parity.
func (p *Binary) tryExit(send network.Sender) {
	st := p.state(p.round)
	if !st.announced {
		return // line 8 precedes line 9
	}
	if st.valid < p.quorum {
		return // the scan below cannot reach n-t chosen yet
	}
	var union valueMask
	chosen := 0
	for _, q := range st.firsts.Order() {
		if mask, _ := st.firsts.Get(q); valueMask(mask)&^st.collected == 0 {
			union |= valueMask(mask)
			if chosen++; chosen == p.quorum {
				break
			}
		}
	}
	if chosen < p.quorum {
		return
	}

	parity := p.round % 2
	switch union {
	case 1, 2: // one bit v
		v := int(union >> 1)
		p.est = v
		if v == parity && !p.decided {
			p.decided = true
			p.decision = v
			p.decidedRound = p.round
		}
	default: // both bits
		p.est = parity
	}
	p.advance(send)
}

// advance enters the next round (Alg. 1 line 14) and replays its buffered
// messages.
func (p *Binary) advance(send network.Sender) {
	if p.round >= p.max {
		return
	}
	p.round++
	p.EstimateHistory = append(p.EstimateHistory, p.est)
	p.out.ResetBackoff() // entering a round
	p.vote(p.round, p.est, send)
	// Guards over already-buffered messages of the new round re-fire.
	p.progress(p.round, send)
}

// OnTick implements network.Ticker: quiet-period retransmission of the whole
// outbox, matching the help-the-laggards loop of Alg. 1, so a replica
// recovering from a crash or partition gets the old-round quorums replayed.
// Safe because every handler is idempotent (distinct-sender sets, first
// announcement wins).
func (p *Binary) OnTick(step int, send network.Sender) { p.out.OnTick(send) }

// Retransmit immediately re-broadcasts every recorded logical broadcast.
func (p *Binary) Retransmit(send network.Sender) { p.out.Retransmit(send) }

// The snapshot body of a replica inside the versioned envelope (see Replica
// for why the fault plane persists it after every delivery).

// BinarySnapshotVersion is the snapshot layout's version byte; bump it on any
// change.
const BinarySnapshotVersion = 1

// SnapshotBytes implements Replica.
func (p *Binary) SnapshotBytes() []byte {
	e := NewEnc(BinarySnapshotVersion)
	e.Int(p.est)
	e.Int(p.round)
	e.Bool(p.decided)
	e.Int(p.decision)
	e.Int(p.decidedRound)
	e.Ints(p.EstimateHistory)
	EncMap(e, p.CollectOrder, func(e *Enc, _ int, order []int) { e.Ints(order) })
	EncMap(e, p.rounds, p.encodeRound)
	e.Messages(p.out.Messages())
	return e.Bytes()
}

func (p *Binary) encodeRound(e *Enc, r int, st *binaryRound) {
	e.ProcSet(st.senders[0])
	e.ProcSet(st.senders[1])
	e.Flags(st.echoed&1 != 0, st.echoed&2 != 0, st.collected&1 != 0, st.collected&2 != 0, st.announced)
	if !p.rules.AnnounceSet {
		e.Ints(p.CollectOrder[r])
	}
	// Announcements in arrival order, so the first one of each sender still
	// wins after a recovery.
	e.Uvarint(uint64(st.firsts.Len()))
	for _, q := range st.firsts.Order() {
		mask, _ := st.firsts.Get(q)
		e.Int(int(q))
		if p.rules.AnnounceSet {
			e.ValueSet(valueMask(mask))
		} else {
			e.Int(int(mask >> 1))
		}
	}
}

// RestoreBytes implements Replica. It never panics on malformed input, and
// it accepts only what SnapshotBytes emits.
func (p *Binary) RestoreBytes(b []byte) error {
	d := NewDec(b, BinarySnapshotVersion)
	est := d.Int()
	round := d.Int()
	decided := d.Bool()
	decision := d.Int()
	decidedRound := d.Int()
	history := d.Ints()
	order := DecMap(d, "collect-order round", func(d *Dec, _ int) []int { return d.Ints() })
	ordered := 0 // rounds with a state and an order entry
	rounds := DecMap(d, "round", func(d *Dec, r int) *binaryRound {
		if _, ok := order[r]; ok {
			ordered++
		}
		return p.decodeRound(d, r, order[r])
	})
	if ordered != len(order) {
		// The handlers collect a bit only into an existing round state.
		d.Fail("collect order names a round with no state")
	}
	outbox := d.Messages()
	if err := d.Finish("snapshot"); err != nil {
		return fmt.Errorf("%s: %w", p.rules.Name, err)
	}
	p.est, p.round, p.rounds, p.last = est, round, rounds, nil
	p.decided, p.decision, p.decidedRound = decided, decision, decidedRound
	p.EstimateHistory, p.CollectOrder = history, order
	p.out.Reboot(outbox)
	return nil
}

// decodeRound reads round r's state, whose collect order is order.
func (p *Binary) decodeRound(d *Dec, r int, order []int) *binaryRound {
	st := newBinaryRound(p.n)
	st.senders[0] = d.ProcSet("vote sender", p.n)
	st.senders[1] = d.ProcSet("vote sender", p.n)
	var e0, e1, c0, c1 bool
	d.Flags(&e0, &e1, &c0, &c1, &st.announced)
	st.echoed = flagMask(e0, e1)
	st.collected = flagMask(c0, c1)
	// The handlers append a bit to the order exactly when they collect it,
	// and an announced first-collected bit is read from it.
	var seen valueMask
	for _, v := range order {
		if bitMask(v) == 0 || seen&bitMask(v) != 0 {
			seen = 0xff
			break
		}
		seen |= bitMask(v)
	}
	if seen != st.collected {
		d.Fail("round %d collect order %v does not list its collected bits", r, order)
	}
	if !p.rules.AnnounceSet {
		if own := d.Ints(); !slices.Equal(own, order) {
			d.Fail("round %d collect order %v differs from its order entry %v", r, own, order)
		}
	}
	for i, count := 0, d.Len(); i < count && d.Err() == nil; i++ {
		q := network.ProcID(d.Int())
		var mask valueMask
		if p.rules.AnnounceSet {
			mask = setMask(d.ValueSet())
		} else {
			mask = bitMask(d.Int())
		}
		switch {
		case d.Err() != nil:
		case q < 0 || int(q) >= p.n:
			d.Fail("announcement sender %d outside [0, %d)", q, p.n)
		case mask == 0:
			// Deliver only ever stores nonempty binary announcements.
			d.Fail("malformed announcement from %d", q)
		case !st.firsts.Add(q, uint8(mask)):
			d.Fail("duplicate announcement from %d", q)
		}
	}
	if d.Err() == nil {
		st.recountValid()
	}
	return st
}

// flagMask packs two flags into a mask, the first as bit 0.
func flagMask(f0, f1 bool) valueMask {
	var m valueMask
	if f0 {
		m |= 1
	}
	if f1 {
		m |= 2
	}
	return m
}

// Lies is the rules' contribution to the Byzantine scaffold: Lies.Equivocator,
// Lies.Liar and Lies.Strategy build the strategies. An equivocator sends its
// v side (Vote, v) and the announcement {v}. A liar sends random votes
// (sometimes both bits, legal even for correct processes) and an announcement
// drawn from three: the sets {0}, {1}, {0,1}, or the values 0, 1 and the
// malformed 2 (exercising the receiver's sanitization).
func (r *BinaryRules) Lies() Lies {
	return Lies{
		Split: func(m network.Message, v int, send network.Sender) {
			m.Kind, m.Value = r.Vote, v
			send(m)
			m.Kind = r.Announce
			if r.AnnounceSet {
				m.Value, m.Set = -1, network.SetOf(v)
			}
			send(m)
		},
		Random: func(m network.Message, rng *rand.Rand, send network.Sender) {
			m.Kind, m.Value = r.Vote, rng.Intn(2)
			send(m)
			if rng.Intn(2) == 0 {
				m.Value = rng.Intn(2)
				send(m)
			}
			m.Kind, m.Value = r.Announce, rng.Intn(3)
			if r.AnnounceSet {
				m.Value, m.Set = -1, network.ValueSet(m.Value+1)
			}
			send(m)
		},
	}
}
