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

// roundState holds the per-round message state. Communication closure
// (Section 2) is implemented by keeping one state per round: early messages
// accumulate here and take effect once the process enters the round.
type roundState struct {
	// bvSenders[v] = distinct processes from which (BV, v) was received.
	bvSenders [2]protocol.SenderSet
	// echoed[v] reports whether this process has broadcast (BV, v).
	echoed [2]bool
	// contestants is the bv-delivered value set (Fig. 1 line 7; the paper's
	// global-scope variable shared between bv-broadcast and propose).
	contestants [2]bool
	auxSent     bool
	// favorites holds, per sender q, the contestant set announced by q's
	// first aux message (Alg. 1 line 8) as a valueMask, and the senders in
	// arrival order.
	favorites protocol.FirstTable
	// validFavorites counts senders whose announced set is contained in
	// contestants — the candidates tryDecide's scan would accept. Contestants
	// only grow, so validity is monotone: the count is bumped per aux arrival
	// and recounted on the (≤2 per round) contestant additions. It lets
	// tryDecide skip its O(n) scan until the n-t threshold is actually
	// reachable; without the gate that scan runs on every delivery, which at
	// thousands of replicas dominates the whole simulation.
	validFavorites int
}

func newRoundState(n int) *roundState {
	return &roundState{
		bvSenders: [2]protocol.SenderSet{protocol.NewSenderSet(n), protocol.NewSenderSet(n)},
		favorites: protocol.NewFirstTable(n),
	}
}

// valueMask is a nonempty binary value set, bit v set iff v is a member: the
// code of one of sanitizeSet's three canonical sets.
type valueMask = uint8

// maskOf returns the mask of a canonical set.
func maskOf(set []int) valueMask {
	var m valueMask
	for _, v := range set {
		m |= 1 << v
	}
	return m
}

// maskSets maps a mask back to its canonical set (see sanitizeSet).
var maskSets = [4][]int{1: zeroOne[0:1:1], 2: zeroOne[1:2:2], 3: zeroOne[0:2:2]}

// contestantMask is the mask of the round's contestant set.
func (st *roundState) contestantMask() valueMask {
	var m valueMask
	for v, in := range st.contestants {
		if in {
			m |= 1 << v
		}
	}
	return m
}

// favoriteValid reports whether every value in the set is a contestant.
func (st *roundState) favoriteValid(set valueMask) bool {
	return set&^st.contestantMask() == 0
}

// recountValidFavorites recomputes validFavorites from scratch; called when
// contestants grows (which can turn previously blocked favorites valid) and
// when a round state is rebuilt from a clone or a decoded snapshot.
func (st *roundState) recountValidFavorites() {
	c := 0
	for _, q := range st.favorites.Order() {
		if set, _ := st.favorites.Get(q); st.favoriteValid(set) {
			c++
		}
	}
	st.validFavorites = c
}

// obsRetransmissions counts outbox re-broadcasts across every dbft process
// in the OS process; each Process hands it to its protocol.Outbox.
var obsRetransmissions = obs.Default.Counter("dbft", "retransmissions")

// Process is a correct DBFT process.
type Process struct {
	id       network.ProcID
	cfg      Config
	instance int // protocol instance (vector consensus multiplexing)

	est    int
	round  int
	rounds map[int]*roundState
	// last caches the entry of rounds that state returned last (lastRound):
	// nearly every delivery reads its round's state three times.
	last      *roundState
	lastRound int

	decided      bool
	decision     int
	decidedRound int

	// out records every logical broadcast (one template per bv-echo and per
	// aux, all rounds) and owns the quiet-period timer that re-sends them.
	out protocol.Outbox

	// EstimateHistory[r] is the estimate held at the START of round r
	// (diagnostics for the Lemma 7 reproduction).
	EstimateHistory []int
	// DeliveryOrder[r] lists the values in bv-delivery order for round r
	// (used to detect v-good executions, Def. 2).
	DeliveryOrder map[int][]int
}

var _ protocol.Replica = (*Process)(nil)
var _ network.Ticker = (*Process)(nil)

// NewProcess builds a correct process with the given input value.
func NewProcess(id network.ProcID, input int, cfg Config, all []network.ProcID) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if input != 0 && input != 1 {
		return nil, fmt.Errorf("dbft: input must be binary, got %d", input)
	}
	return &Process{
		id:            id,
		cfg:           cfg,
		out:           protocol.NewOutbox(all, obsRetransmissions),
		est:           input,
		rounds:        map[int]*roundState{},
		DeliveryOrder: map[int][]int{},
	}, nil
}

// NewProcessInstance builds a correct process bound to a protocol instance:
// it tags outgoing messages with the instance and ignores messages of other
// instances. The vector consensus runs one instance per proposer.
func NewProcessInstance(id network.ProcID, input int, cfg Config, all []network.ProcID, instance int) (*Process, error) {
	p, err := NewProcess(id, input, cfg, all)
	if err != nil {
		return nil, err
	}
	p.instance = instance
	return p, nil
}

// ID implements network.Process.
func (p *Process) ID() network.ProcID { return p.id }

// Decided reports the decision, if any.
func (p *Process) Decided() (value int, round int, ok bool) {
	return p.decision, p.decidedRound, p.decided
}

// Round returns the current round.
func (p *Process) Round() int { return p.round }

// Estimate returns the current estimate.
func (p *Process) Estimate() int { return p.est }

func (p *Process) state(r int) *roundState {
	if p.last != nil && p.lastRound == r {
		return p.last
	}
	st, ok := p.rounds[r]
	if !ok {
		st = newRoundState(p.cfg.N)
		p.rounds[r] = st
	}
	p.last, p.lastRound = st, r
	return st
}

// Start implements network.Process: propose(est) — enter round 0 and
// bv-broadcast the input estimate (Alg. 1 lines 4-6, Fig. 1 line 2).
func (p *Process) Start(send network.Sender) {
	p.EstimateHistory = append(p.EstimateHistory, p.est)
	p.bvBroadcast(p.round, p.est, send)
}

// bvBroadcast emits (BV, v) for the round and marks it echoed.
func (p *Process) bvBroadcast(round, v int, send network.Sender) {
	st := p.state(round)
	if st.echoed[v] {
		return
	}
	st.echoed[v] = true
	p.out.Broadcast(send, network.Message{
		From: p.id, Round: round, Kind: network.MsgBV, Value: v, Instance: p.instance,
	})
}

// Deliver implements network.Process. Only a message that carries *new*
// information is credited as traffic to the retransmission timer (see
// protocol.Timer for the liveness wedge a duplicate's credit would open).
func (p *Process) Deliver(m network.Message, send network.Sender) {
	if m.Instance != p.instance {
		return
	}
	if m.Round < 0 || m.Round > p.cfg.MaxRounds {
		return
	}
	if m.From < 0 || int(m.From) >= p.cfg.N {
		return // a sender outside the process set is malformed input
	}
	// The round state is looked up only for a message that counts: malformed
	// or unknown content must not create one, or it would grow every later
	// snapshot.
	switch m.Kind {
	case network.MsgBV:
		if m.Value != 0 && m.Value != 1 {
			return // malformed (Byzantine) content is ignored
		}
		if !p.state(m.Round).bvSenders[m.Value].Add(m.From) {
			return // duplicate: nothing new, no traffic credit
		}
	case network.MsgAux:
		set := sanitizeSet(m.Set)
		if set == nil {
			return
		}
		mask := maskOf(set)
		st := p.state(m.Round)
		if !st.favorites.Add(m.From, mask) {
			return // only the first aux message per sender counts
		}
		if st.favoriteValid(mask) {
			st.validFavorites++
		}
	default:
		return
	}
	p.out.SawTraffic()
	p.progress(m.Round, send)
}

// zeroOne backs the three canonical contestant sets sanitizeSet returns.
var zeroOne = []int{0, 1}

// sanitizeSet reduces an AUX set to its canonical form — sorted, without
// repeats — or nil when it is empty or names a value other than 0 and 1. The
// result is one of three shared slices, {0}, {1} and {0,1}, capacity-capped
// so an append copies: callers only ever read it.
func sanitizeSet(set []int) []int {
	var has [2]bool
	for _, v := range set {
		if v != 0 && v != 1 {
			return nil
		}
		has[v] = true
	}
	switch {
	case has[0] && has[1]:
		return zeroOne[0:2:2]
	case has[0]:
		return zeroOne[0:1:1]
	case has[1]:
		return zeroOne[1:2:2]
	}
	return nil
}

// progress re-evaluates the guarded statements of Fig. 1 and Alg. 1 for a
// round. Echo rules (Fig. 1 lines 4-5) fire for any round (they only depend
// on that round's messages); the aux broadcast and the decision step only
// fire for the process's current round.
func (p *Process) progress(round int, send network.Sender) {
	st := p.state(round)

	// Fig. 1 line 4-5: echo v after t+1 distinct (BV, v).
	for v := 0; v <= 1; v++ {
		if st.bvSenders[v].Len() >= p.cfg.T+1 && !st.echoed[v] {
			p.bvBroadcast(round, v, send)
		}
	}
	// Fig. 1 lines 6-7: deliver v after 2t+1 distinct (BV, v).
	for v := 0; v <= 1; v++ {
		if st.bvSenders[v].Len() >= 2*p.cfg.T+1 && !st.contestants[v] {
			st.contestants[v] = true
			p.DeliveryOrder[round] = append(p.DeliveryOrder[round], v)
			st.recountValidFavorites()
		}
	}

	if round != p.round {
		return
	}
	// Alg. 1 lines 7-8: once contestants is nonempty, broadcast it (once).
	if !st.auxSent && (st.contestants[0] || st.contestants[1]) {
		st.auxSent = true
		p.out.Broadcast(send, network.Message{
			From: p.id, Round: round, Kind: network.MsgAux, Value: -1,
			Set: contestantSlice(st), Instance: p.instance,
		})
	}
	p.tryDecide(send)
}

func contestantSlice(st *roundState) []int {
	var out []int
	if st.contestants[0] {
		out = append(out, 0)
	}
	if st.contestants[1] {
		out = append(out, 1)
	}
	return out
}

// tryDecide implements Alg. 1 lines 9-14: wait until n-t aux messages whose
// values are all contestants, compute qualifiers as their union, then decide
// or adopt an estimate based on the round parity.
func (p *Process) tryDecide(send network.Sender) {
	st := p.state(p.round)
	if !st.auxSent {
		return // line 8 precedes line 9
	}
	if st.validFavorites < p.cfg.N-p.cfg.T {
		return // the scan below cannot reach n-t chosen yet
	}
	// qualifiers is the union of the first n-t valid favorites.
	var qualifiers valueMask
	chosen := 0
	for _, q := range st.favorites.Order() {
		if set, _ := st.favorites.Get(q); st.favoriteValid(set) {
			qualifiers |= set
			if chosen++; chosen == p.cfg.N-p.cfg.T {
				break
			}
		}
	}
	if chosen < p.cfg.N-p.cfg.T {
		return
	}

	parity := p.round % 2
	switch qualifiers {
	case 1, 2: // singleton {v}
		v := int(qualifiers >> 1)
		p.est = v
		if v == parity && !p.decided {
			p.decided = true
			p.decision = v
			p.decidedRound = p.round
		}
	default: // both values
		p.est = parity
	}
	p.advance(send)
}

// advance enters the next round (Alg. 1 line 14) and replays its buffered
// messages.
func (p *Process) advance(send network.Sender) {
	if p.round >= p.cfg.MaxRounds {
		return
	}
	p.round++
	p.EstimateHistory = append(p.EstimateHistory, p.est)
	p.out.ResetBackoff() // entering a round
	p.bvBroadcast(p.round, p.est, send)
	// Guards over already-buffered messages of the new round re-fire.
	p.progress(p.round, send)
}

// OnTick implements network.Ticker: quiet-period retransmission of the whole
// outbox, matching the help-the-laggards loop of Alg. 1. Safe because every
// handler is idempotent (distinct-sender sets, first-aux-wins).
func (p *Process) OnTick(step int, send network.Sender) { p.out.OnTick(send) }

// Retransmit immediately re-broadcasts every recorded logical broadcast.
func (p *Process) Retransmit(send network.Sender) { p.out.Retransmit(send) }

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
		order := p.DeliveryOrder[round]
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
