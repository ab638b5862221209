// Package network simulates the system model of Section 2: n asynchronous
// sequential processes exchanging messages over a reliable fully-connected
// point-to-point network. Message delays are unbounded but finite; at each
// step exactly one in-flight message is delivered, chosen by a pluggable
// Scheduler (the adversary). Up to t processes may be Byzantine: they are
// ordinary Process implementations free to send arbitrary messages.
//
// The package drives the *executable* DBFT implementation of internal/dbft,
// cross-validating the threshold-automata models: agreement and validity
// hold for every schedule when f <= t, termination holds under the fairness
// assumption of Section 3.3, and both fail in the regimes the paper
// identifies (f > n/3, unfair schedules — Appendix B).
//
// Two message stores back the System. The default is an event bus — a
// broker over bounded per-peer FIFO queues with arrival stamps, optional
// replay filtering (dupemap), stall detection, topic subscriptions and
// pluggable topologies — which also scales to thousands of replicas via its
// native window-drain mode (see bus.go). The legacy flat in-flight slice
// survives as BackendFlat, the compatibility shim the byte-identity tests
// replay against: for any seeded run the bus's arrival-ordered view is, by
// construction, entry-for-entry the flat slice, so schedulers, traces and
// fault logs are identical across backends.
package network

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
)

// ProcID identifies a process (0-based).
type ProcID int

// MsgKind distinguishes the two message types of Algorithm 1.
type MsgKind string

// Message kinds.
const (
	// MsgBV is a binary-value broadcast message (Fig. 1): carries Value.
	MsgBV MsgKind = "BV"
	// MsgAux is an auxiliary message (Alg. 1 line 8): carries Set, the
	// sender's contestants at broadcast time.
	MsgAux MsgKind = "AUX"
	// MsgProp, MsgEcho and MsgReady implement the Bracha reliable broadcast
	// used by the vector consensus for proposals: they carry Proposer and
	// Payload.
	MsgProp  MsgKind = "PROP"
	MsgEcho  MsgKind = "ECHO"
	MsgReady MsgKind = "READY"
	// MsgVote and MsgCand are the two message types of the SBA* binary
	// reduction (internal/sba): a step-1 vote and a step-2 candidate. Both
	// carry Value.
	MsgVote MsgKind = "VOTE"
	MsgCand MsgKind = "CAND"
)

// Message is a point-to-point message. Round tags implement
// communication-closure: receivers buffer future rounds and never act on
// past ones.
type Message struct {
	From  ProcID
	To    ProcID
	Round int
	Kind  MsgKind
	Value int   // MsgBV
	Set   []int // MsgAux (sorted)

	// Instance multiplexes independent protocol instances over one network
	// (the vector consensus runs one binary consensus per proposer).
	Instance int
	// Proposer and Payload carry reliable-broadcast content
	// (MsgProp/MsgEcho/MsgReady).
	Proposer ProcID
	Payload  string

	// Seq tags one enqueued copy of a message. The base reliable network
	// leaves it zero; a fault layer installed via SendTap may stamp it to
	// track per-copy metadata (delays, duplicates) across the in-flight
	// multiset. Two copies of the same logical message differ only in Seq.
	Seq int64
}

// MsgKey is a message's content identity: every field except the per-copy
// Seq tag, as one comparable value. Retransmitted or duplicated copies of one
// logical message share a key; it is what the fault plane's per-message
// budgets are counted against and what the bus interns for its replay filter.
// Nothing is formatted to build it, and two keys are equal exactly when the
// messages agree field for field (a nil and an empty Set are the same set).
type MsgKey struct {
	from, to, proposer     ProcID
	round, value, instance int
	kind                   MsgKind
	payload                string
	set                    string // setKey(Set)
}

// Key returns the message's content identity.
func (m Message) Key() MsgKey {
	return MsgKey{from: m.From, to: m.To, proposer: m.Proposer, round: m.Round, value: m.Value,
		instance: m.Instance, kind: m.Kind, payload: m.Payload, set: setKey(m.Set)}
}

// setKey encodes a Set injectively, keeping order and duplicates: a Byzantine
// sender may emit [1,0] or [0,0], and those are different messages from
// [0,1] and [0]. Varints are prefix-free, so their concatenation needs no
// separator. The four sets binary consensus sends are substrings of one
// constant and cost no allocation.
func setKey(set []int) string {
	const zeroOne = "\x00\x02" // varint(0) varint(1)
	switch {
	case len(set) == 0:
		return ""
	case len(set) == 1 && set[0] == 0:
		return zeroOne[:1]
	case len(set) == 1 && set[0] == 1:
		return zeroOne[1:]
	case len(set) == 2 && set[0] == 0 && set[1] == 1:
		return zeroOne
	}
	b := make([]byte, 0, 2*len(set))
	for _, v := range set {
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

func (m Message) String() string {
	switch m.Kind {
	case MsgBV:
		return fmt.Sprintf("BV(r%d,%d) %d->%d", m.Round, m.Value, m.From, m.To)
	case MsgVote, MsgCand:
		return fmt.Sprintf("%s(r%d,%d) %d->%d", m.Kind, m.Round, m.Value, m.From, m.To)
	case MsgProp, MsgEcho, MsgReady:
		return fmt.Sprintf("%s(p%d,%q) %d->%d", m.Kind, m.Proposer, m.Payload, m.From, m.To)
	default:
		vals := make([]string, len(m.Set))
		for i, v := range m.Set {
			vals[i] = fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("AUX(r%d,{%s}) %d->%d", m.Round, strings.Join(vals, ","), m.From, m.To)
	}
}

// Sender lets a process emit messages during Start or Deliver.
type Sender func(m Message)

// Process is a participant: correct processes implement Algorithm 1,
// Byzantine processes implement an attack strategy.
type Process interface {
	ID() ProcID
	// Start is invoked once before any delivery.
	Start(send Sender)
	// Deliver handles one incoming message.
	Deliver(m Message, send Sender)
}

// Scheduler resolves asynchrony: given the in-flight messages, it picks the
// index of the next one to deliver. It fully determines the adversarial
// message ordering. Returning Tick delivers nothing but still advances
// simulated time — the escape hatch a fault layer uses while every in-flight
// message is held behind a partition or a delivery delay.
type Scheduler interface {
	Next(inflight []Message, step int) int
}

// Tick is the sentinel a Scheduler returns to advance time without a
// delivery.
const Tick = -1

// Ticker is implemented by processes that want periodic timer events (the
// hook retransmission layers are built on). The System invokes OnTick every
// TickInterval steps; sends made during OnTick enter the network normally.
type Ticker interface {
	OnTick(step int, send Sender)
}

// Backend selects the in-flight message store.
type Backend int

const (
	// BackendBus (the default) stores messages in per-peer queues behind a
	// broker. With zero BusOptions it replays byte-identically to the flat
	// loop under any Scheduler.
	BackendBus Backend = iota
	// BackendFlat is the legacy flat in-flight slice, kept as the
	// compatibility shim the byte-identity tests cross-validate against.
	BackendFlat
)

// Options configure a System beyond processes and scheduler.
type Options struct {
	Backend Backend
	Bus     BusOptions
	// Native, when non-nil, switches the bus to window-drain mode: the
	// Scheduler is no longer consulted (it may be nil); every Step drains
	// up to Batch eligible entries per peer, optionally across parallel
	// partitions. Required for sparse topologies.
	Native *NativeOptions
}

// System wires processes, the in-flight message multiset and a scheduler.
type System struct {
	procs map[ProcID]Process
	order []ProcID
	sched Scheduler

	flat    []Message // BackendFlat store
	bus     *busStore // BackendBus store
	native  *NativeOptions
	started bool
	sender  ProcID // process currently executing Start/Deliver

	// native-mode scratch, reused across windows
	drains     []peerDrain
	egressUsed []int

	// Trace records every delivered message when enabled.
	Trace       []Message
	RecordTrace bool
	Steps       int
	DroppedPast int // deliveries to finished processes etc. (diagnostics)

	// SendTap, when non-nil, interposes on the send path after the sender
	// identity is stamped: the returned copies are enqueued instead of the
	// original (nil = the message is dropped). It is the fault-injection
	// hook of internal/faults; the base network is reliable. The System is
	// the only caller and has enqueued every returned copy before it sends
	// again, so a tap may hand back the same scratch slice on every call.
	SendTap func(m Message) []Message

	// HoldTap, consulted once per enqueued copy in native mode, returns the
	// earliest step the copy may deliver (0 = immediately). It is how the
	// fault plane's delivery delays thread through the bus: the compat path
	// keeps them inside the Scheduler instead.
	HoldTap func(m Message) int

	// CutTap, consulted at dequeue time in native mode, reports whether the
	// physical from->to link is severed at the given step (partitions).
	// It must be pure: native workers call it concurrently.
	CutTap func(from, to ProcID, step int) bool

	// StepTap observes the window clock at the top of each native step,
	// before any delivery — the native analogue of the fault injector
	// advancing its clock inside Scheduler.Next.
	StepTap func(step int)

	// TickInterval > 0 invokes OnTick on every Ticker process each
	// TickInterval steps (delivery steps and scheduler Tick steps alike).
	// With ticks enabled the system no longer quiesces on an empty in-flight
	// set — time keeps passing so retransmission timers can fire — and a run
	// ends only via its stop predicate or step budget.
	TickInterval int
}

// peerDrain buffers one peer's native-window results so the merge phase can
// apply them deterministically in peer-id order regardless of how many
// worker partitions produced them.
type peerDrain struct {
	delivered int64      // messages handed to the process
	trace     []Message  // the same messages in pop order, under RecordTrace
	sends     []Message  // handler output, in emission order
	send      Sender     // appends to sends; built once, handed to every Deliver
	relays    []busEntry // in-transit entries to forward at merge
	taken     int        // entries popped (delivered + filtered + relayed)
	filtered  int64      // dupemap suppressions at delivery time
}

// NewSystem builds a system over the given processes with the default
// event-bus backend (byte-identical to the legacy flat loop).
func NewSystem(procs []Process, sched Scheduler) (*System, error) {
	return NewSystemOpts(procs, sched, Options{})
}

// NewSystemOpts builds a system with explicit backend, bus and drain-mode
// options.
func NewSystemOpts(procs []Process, sched Scheduler, opts Options) (*System, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("network: no processes")
	}
	if sched == nil && opts.Native == nil {
		return nil, fmt.Errorf("network: no scheduler")
	}
	s := &System{procs: make(map[ProcID]Process, len(procs)), sched: sched}
	for _, p := range procs {
		if _, dup := s.procs[p.ID()]; dup {
			return nil, fmt.Errorf("network: duplicate process id %d", p.ID())
		}
		s.procs[p.ID()] = p
		s.order = append(s.order, p.ID())
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	switch opts.Backend {
	case BackendFlat:
		if opts.Native != nil {
			return nil, fmt.Errorf("network: native drain mode requires the bus backend")
		}
		if opts.Bus.QueueCap != 0 || opts.Bus.EgressCap != 0 || opts.Bus.Dupemap ||
			opts.Bus.DupemapCap != 0 || opts.Bus.StallK != 0 || opts.Bus.Topology != nil {
			return nil, fmt.Errorf("network: flat backend does not support bus options")
		}
	case BackendBus:
		s.bus = newBusStore(s.order, opts.Bus)
		if s.bus.sparse && opts.Native == nil {
			return nil, fmt.Errorf("network: topology %q relays through peers and requires native drain mode", s.bus.topo.Name())
		}
		if opts.Native != nil {
			nat := *opts.Native
			if nat.Batch <= 0 {
				nat.Batch = 4
			}
			if nat.Partitions <= 0 {
				nat.Partitions = 1
			}
			if nat.ScanLimit <= 0 {
				nat.ScanLimit = 128
			}
			s.native = &nat
			s.drains = make([]peerDrain, len(s.order))
			for i := range s.drains {
				d := &s.drains[i]
				d.send = func(m Message) { d.sends = append(d.sends, m) }
			}
			s.egressUsed = make([]int, len(s.order))
		}
	default:
		return nil, fmt.Errorf("network: unknown backend %d", opts.Backend)
	}
	return s, nil
}

// NativeMode reports whether the system drains in native windows (no
// Scheduler consultation).
func (s *System) NativeMode() bool { return s.native != nil }

// Subscribe restricts a process's queue to the given topics. Before the
// first call a peer receives everything; afterwards only matching
// (Kind, Instance) messages are enqueued (AnyInstance wildcards the
// instance). Bus backend only.
func (s *System) Subscribe(id ProcID, topics ...Topic) error {
	if s.bus == nil {
		return fmt.Errorf("network: subscriptions require the bus backend")
	}
	if _, ok := s.procs[id]; !ok {
		return fmt.Errorf("network: subscribe: unknown process %d", id)
	}
	s.bus.subscribe(id, topics...)
	return nil
}

// BusStats returns a snapshot of the bus counters (zero value on the flat
// backend).
func (s *System) BusStats() BusStats {
	if s.bus == nil {
		return BusStats{}
	}
	return s.bus.stats
}

// StallEvents returns the first stall transitions observed (capped), and
// Stalled the set of currently-stalled peers.
func (s *System) StallEvents() []StallEvent {
	if s.bus == nil {
		return nil
	}
	return s.bus.stallLog
}

// Stalled returns the peers currently flagged by the stall detector.
func (s *System) Stalled() []ProcID {
	if s.bus == nil {
		return nil
	}
	var out []ProcID
	for qi := range s.bus.queues {
		if s.bus.queues[qi].stalled {
			out = append(out, s.bus.queues[qi].id)
		}
	}
	return out
}

// send enqueues a message (reliable: it stays in flight until delivered).
// Channels are authenticated point-to-point links (Section 2 of the paper):
// the sender identity is stamped by the network, so even a Byzantine process
// cannot forge another process's From — forging would defeat every
// distinct-sender threshold of the protocols above.
func (s *System) send(m Message) {
	if _, ok := s.procs[m.To]; !ok {
		s.DroppedPast++
		return
	}
	m.From = s.sender
	if s.native != nil && s.bus.opts.EgressCap > 0 {
		fi := s.bus.idx[m.From]
		if s.egressUsed[fi] >= s.bus.opts.EgressCap {
			// Defer to the sender's bounded egress buffer; drained FIFO at
			// the top of later windows, so nothing starves.
			q := &s.bus.queues[fi]
			if s.bus.opts.QueueCap > 0 && q.egressDepth() >= s.bus.opts.QueueCap {
				s.bus.stats.EgressDrops++
				obsEgressDrops.Inc()
				return
			}
			q.egress = append(q.egress, m)
			return
		}
		s.egressUsed[fi]++
	}
	s.release(m)
}

// release puts a sent message on the wire: through the send tap when one is
// installed, enqueueing whatever copies it returns.
func (s *System) release(m Message) {
	if s.SendTap == nil {
		s.enqueue(m)
		return
	}
	for _, c := range s.SendTap(m) {
		c.From = m.From // the tap may copy but not forge the sender
		s.enqueue(c)
	}
}

// enqueue places one copy into the backing store. Copy-on-enqueue: every
// in-flight copy owns its Set backing array, so a later mutation through the
// sender's template (a Byzantine strategy reusing one literal, a
// retransmitted outbox entry, a fault-layer duplicate) cannot bleed into
// copies already in flight — the append-backing-array aliasing family PR 3
// fixed in fullWalk.
func (s *System) enqueue(m Message) {
	if m.Set != nil {
		m.Set = append([]int(nil), m.Set...)
	}
	if s.bus == nil {
		s.flat = append(s.flat, m)
		return
	}
	notBefore := 0
	if s.HoldTap != nil {
		notBefore = s.HoldTap(m)
	}
	s.bus.enqueue(m, notBefore)
}

// Inflight returns the number of undelivered messages (including native-mode
// deferred egress).
func (s *System) Inflight() int {
	if s.bus == nil {
		return len(s.flat)
	}
	n := s.bus.size
	if s.native != nil && s.bus.opts.EgressCap > 0 {
		n += s.bus.egressPending()
	}
	return n
}

// Inject enqueues a message from outside any handler (scripted adversaries,
// fault-plane tests). Unlike in-handler sends the sender identity is taken
// from the message itself; the message still passes through SendTap.
func (s *System) Inject(m Message) {
	s.sender = m.From
	s.send(m)
}

// start runs every process's Start hook once.
func (s *System) start() {
	s.started = true
	for _, id := range s.order {
		s.sender = id
		s.procs[id].Start(s.send)
	}
}

// Step delivers exactly one message (after starting all processes on the
// first call). It reports whether a delivery happened (false = quiescent).
// In native mode one Step is one drain window instead (see stepWindow).
func (s *System) Step() (bool, error) {
	if s.native != nil {
		return s.stepWindow()
	}
	if !s.started {
		s.start()
	}
	if s.Inflight() == 0 {
		if s.TickInterval > 0 {
			// Time passes even with nothing in flight: retransmission
			// timers must be able to repopulate the network (e.g. after a
			// crash window swallowed every copy).
			s.Steps++
			s.tick()
			return true, nil
		}
		return false, nil
	}
	view := s.flat
	if s.bus != nil {
		view = s.bus.compatView()
	}
	idx := s.sched.Next(view, s.Steps)
	if idx == Tick {
		s.Steps++
		s.tick()
		return true, nil
	}
	if idx < 0 || idx >= len(view) {
		return false, fmt.Errorf("network: scheduler chose out-of-range message %d of %d", idx, len(view))
	}
	s.Steps++
	var m Message
	if s.bus != nil {
		e := s.bus.takeCompat(idx, s.Steps)
		m = e.msg
		s.bus.scanStalls(s.Steps)
		if q := &s.bus.queues[s.bus.idx[m.To]]; q.seen != nil && !q.seen.add(e.id) {
			// Replay filter (opt-in): the copy is consumed but not
			// delivered; the step still advances simulated time.
			s.bus.filtered(1)
			s.tick()
			return true, nil
		}
		s.bus.stats.Delivered++
		obsDelivered.Inc()
	} else {
		m = s.flat[idx]
		s.flat = append(s.flat[:idx], s.flat[idx+1:]...)
	}
	if s.RecordTrace {
		s.Trace = append(s.Trace, m)
	}
	s.sender = m.To
	s.procs[m.To].Deliver(m, s.send)
	s.tick()
	return true, nil
}

// tick fires the periodic timer when the step count crosses a TickInterval
// boundary.
func (s *System) tick() {
	if s.TickInterval <= 0 || s.Steps%s.TickInterval != 0 {
		return
	}
	for _, id := range s.order {
		if t, ok := s.procs[id].(Ticker); ok {
			s.sender = id
			t.OnTick(s.Steps, s.send)
		}
	}
}

// Run steps until quiescence, the stop predicate fires, or maxSteps is
// reached. It returns the number of steps taken. A panic in a process
// handler or scheduler is converted into an error (annotated with the step
// at which it fired) so that property campaigns survive a misbehaving
// worker instead of crashing wholesale; native-mode worker goroutines carry
// their own recovery (see stepWindow) and surface the same way.
func (s *System) Run(maxSteps int, stop func() bool) (steps int, err error) {
	defer func() {
		if r := recover(); r != nil {
			steps = s.Steps
			err = fmt.Errorf("network: panic at step %d: %v\n%s", s.Steps, r, debug.Stack())
		}
	}()
	for i := 0; maxSteps <= 0 || i < maxSteps; i++ {
		if stop != nil && stop() {
			return s.Steps, nil
		}
		progressed, err := s.Step()
		if err != nil {
			return s.Steps, err
		}
		if !progressed {
			return s.Steps, nil
		}
	}
	return s.Steps, nil
}

// Broadcast sends m to every process (including the sender, per the
// paper's broadcast primitive).
func Broadcast(send Sender, procs []ProcID, m Message) {
	for _, to := range procs {
		mm := m
		mm.To = to
		send(mm)
	}
}

// --- Schedulers ---

// FIFOScheduler delivers messages in send order: the synchronous-friendly
// baseline.
type FIFOScheduler struct{}

// Next implements Scheduler.
func (FIFOScheduler) Next(inflight []Message, _ int) int { return 0 }

// RandomScheduler delivers a uniformly random in-flight message: the
// standard asynchrony model for property-based testing.
type RandomScheduler struct {
	Rng *rand.Rand
}

// Next implements Scheduler.
func (r RandomScheduler) Next(inflight []Message, _ int) int {
	return r.Rng.Intn(len(inflight))
}

// PriorityScheduler delivers the in-flight message with the smallest key.
// Ties break by queue position (send order).
type PriorityScheduler struct {
	Key func(m Message) int
}

// Next implements Scheduler.
func (p PriorityScheduler) Next(inflight []Message, _ int) int {
	best := 0
	bestKey := p.Key(inflight[0])
	for i := 1; i < len(inflight); i++ {
		if k := p.Key(inflight[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// FuncScheduler adapts a plain function.
type FuncScheduler func(inflight []Message, step int) int

// Next implements Scheduler.
func (f FuncScheduler) Next(inflight []Message, step int) int { return f(inflight, step) }
