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

// roundState holds the per-round message state. Communication closure is
// implemented exactly as in dbft: one state per round, early messages
// accumulate here and take effect once the process enters the round.
type roundState struct {
	// voteSenders[v] = distinct processes from which VOTE(v) was received.
	voteSenders [2]map[network.ProcID]bool
	// voted[v] reports whether this process has broadcast VOTE(v).
	voted [2]bool
	// locked[v] reports whether v reached n-t distinct vote senders — the
	// step-1 threshold-collect output.
	locked [2]bool
	// lockOrder records the bits in lock order; the first entry is the
	// step-2 candidate.
	lockOrder []int
	candSent  bool
	// candidates[q] = the candidate bit announced by q's first CAND message.
	candidates map[network.ProcID]int
	candOrder  []network.ProcID
	// justified counts candidates whose bit is locked locally — the ones the
	// step-2 exit scan would accept. Locks only grow, so the count is bumped
	// per arrival and recounted on the (<= 2 per round) lock additions.
	justified int
}

func newRoundState() *roundState {
	return &roundState{
		voteSenders: [2]map[network.ProcID]bool{make(map[network.ProcID]bool), make(map[network.ProcID]bool)},
		candidates:  make(map[network.ProcID]int),
	}
}

// recountJustified recomputes justified from scratch; called when a bit
// locks (which can turn previously blocked candidates justified) and when a
// round state is rebuilt from a clone or a decoded snapshot.
func (st *roundState) recountJustified() {
	c := 0
	for _, q := range st.candOrder {
		if st.locked[st.candidates[q]] {
			c++
		}
	}
	st.justified = c
}

// obsRetransmissions counts outbox re-broadcasts across every sba process in
// the OS process; each Process hands it to its protocol.Outbox.
var obsRetransmissions = obs.Default.Counter("sba", "retransmissions")

// Process is a correct SBA reduction process.
type Process struct {
	id  network.ProcID
	cfg Config

	est    int
	round  int
	rounds map[int]*roundState

	decided      bool
	decision     int
	decidedRound int

	// out records every logical broadcast (vote echoes and candidates, all
	// rounds) and owns the quiet-period timer that re-sends them.
	out protocol.Outbox

	// EstimateHistory[r] is the estimate held at the START of round r.
	EstimateHistory []int
	// LockOrder[r] lists the bits in step-1 lock order for round r
	// (diagnostics; the first entry is the candidate the process propagated).
	LockOrder map[int][]int
}

var _ protocol.Replica = (*Process)(nil)
var _ network.Ticker = (*Process)(nil)

// NewProcess builds a correct process with the given input bit.
func NewProcess(id network.ProcID, input int, cfg Config, all []network.ProcID) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if input != 0 && input != 1 {
		return nil, fmt.Errorf("sba: input must be binary, got %d", input)
	}
	return &Process{
		id:        id,
		cfg:       cfg,
		out:       protocol.NewOutbox(all, obsRetransmissions),
		est:       input,
		rounds:    map[int]*roundState{},
		LockOrder: map[int][]int{},
	}, nil
}

// ID implements network.Process.
func (p *Process) ID() network.ProcID { return p.id }

// Decided reports the reduced bit, if any.
func (p *Process) Decided() (value int, round int, ok bool) {
	return p.decision, p.decidedRound, p.decided
}

// Round returns the current round.
func (p *Process) Round() int { return p.round }

// Estimate returns the current estimate.
func (p *Process) Estimate() int { return p.est }

func (p *Process) state(r int) *roundState {
	st, ok := p.rounds[r]
	if !ok {
		st = newRoundState()
		p.rounds[r] = st
	}
	return st
}

// Start implements network.Process: enter round 0 and vote the input.
func (p *Process) Start(send network.Sender) {
	p.EstimateHistory = append(p.EstimateHistory, p.est)
	p.vote(p.round, p.est, send)
}

// vote emits VOTE(r, v) once per (round, bit).
func (p *Process) vote(round, v int, send network.Sender) {
	st := p.state(round)
	if st.voted[v] {
		return
	}
	st.voted[v] = true
	p.out.Broadcast(send, network.Message{
		From: p.id, Round: round, Kind: network.MsgVote, Value: v,
	})
}

// Deliver implements network.Process. Only a message carrying new
// information is credited as traffic to the retransmission timer (see
// protocol.Timer for the liveness wedge a duplicate's credit would open).
func (p *Process) Deliver(m network.Message, send network.Sender) {
	if m.Round < 0 || m.Round > p.cfg.MaxRounds {
		return
	}
	if m.Value != 0 && m.Value != 1 {
		return // malformed (Byzantine) content is ignored
	}
	st := p.state(m.Round)
	switch m.Kind {
	case network.MsgVote:
		if st.voteSenders[m.Value][m.From] {
			return // duplicate: nothing new, no traffic credit
		}
		st.voteSenders[m.Value][m.From] = true
	case network.MsgCand:
		if _, dup := st.candidates[m.From]; dup {
			return // only the first candidate per sender counts
		}
		st.candidates[m.From] = m.Value
		st.candOrder = append(st.candOrder, m.From)
		if st.locked[m.Value] {
			st.justified++
		}
	default:
		return
	}
	p.out.SawTraffic()
	p.progress(m.Round, send)
}

// progress re-evaluates the guarded statements of both reduction steps for a
// round. Vote amplification and locking fire for any round (they only
// depend on that round's messages); the candidate broadcast and the exit
// evaluation only fire for the process's current round.
func (p *Process) progress(round int, send network.Sender) {
	st := p.state(round)

	// Step 1 amplification: echo v after t+1 distinct VOTE(v) — a locked
	// bit is thereby always justified by a correct vote.
	for v := 0; v <= 1; v++ {
		if len(st.voteSenders[v]) >= p.cfg.T+1 && !st.voted[v] {
			p.vote(round, v, send)
		}
	}
	// Step 1 threshold-collect: lock v after n-t distinct VOTE(v).
	for v := 0; v <= 1; v++ {
		if len(st.voteSenders[v]) >= p.cfg.N-p.cfg.T && !st.locked[v] {
			st.locked[v] = true
			st.lockOrder = append(st.lockOrder, v)
			p.LockOrder[round] = append(p.LockOrder[round], v)
			st.recountJustified()
		}
	}

	if round != p.round {
		return
	}
	// Step 2 propagate: once some bit is locked, announce the first-locked
	// bit as this process's candidate (once).
	if !st.candSent && len(st.lockOrder) > 0 {
		st.candSent = true
		p.out.Broadcast(send, network.Message{
			From: p.id, Round: round, Kind: network.MsgCand, Value: st.lockOrder[0],
		})
	}
	p.tryExit(send)
}

// tryExit implements the step-2 exit: wait until n-t candidates justified by
// local locks, reduce to the uniform bit (deciding it when it matches the
// round default) or fall back to the default on a mixed set.
func (p *Process) tryExit(send network.Sender) {
	st := p.state(p.round)
	if !st.candSent {
		return // a process propagates before it evaluates
	}
	if st.justified < p.cfg.N-p.cfg.T {
		return // the scan below cannot reach n-t chosen yet
	}
	var seen [2]bool
	chosen := 0
	for _, q := range st.candOrder {
		b := st.candidates[q]
		if !st.locked[b] {
			continue
		}
		seen[b] = true
		chosen++
		if chosen == p.cfg.N-p.cfg.T {
			break
		}
	}
	if chosen < p.cfg.N-p.cfg.T {
		return
	}

	def := p.round % 2
	switch {
	case seen[0] != seen[1]: // uniform candidate set {b}
		b := 0
		if seen[1] {
			b = 1
		}
		p.est = b
		if b == def && !p.decided {
			p.decided = true
			p.decision = b
			p.decidedRound = p.round
		}
	default: // mixed: no uniform-value consensus, fall back to the default
		p.est = def
	}
	p.advance(send)
}

// advance enters the next round and replays its buffered messages.
func (p *Process) advance(send network.Sender) {
	if p.round >= p.cfg.MaxRounds {
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
// outbox, so a replica recovering from a crash or partition gets the
// old-round vote and candidate quorums replayed; every handler is idempotent
// (distinct-sender sets, first-candidate-wins).
func (p *Process) OnTick(step int, send network.Sender) { p.out.OnTick(send) }

// Processes builds correct processes with the given inputs and ids
// 0..len(inputs)-1; ids beyond are left to Byzantine strategies.
func Processes(cfg Config, inputs []int, all []network.ProcID) ([]*Process, error) {
	return protocol.Processes(inputs, func(id network.ProcID, input int) (*Process, error) {
		return NewProcess(id, input, cfg, all)
	})
}
