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
// One message store backs the System: an event bus, a broker over bounded
// per-peer FIFO queues with arrival stamps, optional replay filtering
// (dupemap), stall detection and pluggable topologies (see bus.go). The bus stores each sent content once, in a content table
// numbered by content id; a queued copy is that id plus its destination and
// per-copy stamps, and delivery rebuilds the Message from the table. It
// serves both delivery models. Under a Scheduler, the adversary of Section 2,
// each Step merges the queues in arrival order into a view of the copies
// deliverable now and delivers the one the Scheduler picks; any in-flight
// copy can be picked, which FIFO queue heads alone cannot express. In native
// window-drain mode, the scale path for thousands of replicas, every peer
// pops its own queue instead (see native.go). The fault plane reaches both
// models through the same taps: SendTap on the send path, deciding each
// copy's Seq and delay as a Stamp, CutTap severing links and StepTap
// reporting the clock.
package network

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// ProcID identifies a process (0-based).
type ProcID int

// MsgKind distinguishes the message types of the binary protocols. It is one
// byte; kindNames gives each kind the name it renders, encodes and is
// written in scenario JSON as. Kind 0 is the unnamed kind: it renders and
// encodes as "", so a zero Message keeps its text.
type MsgKind uint8

// Message kinds.
const (
	// MsgBV is a binary-value broadcast message (Fig. 1): carries Value.
	MsgBV MsgKind = iota + 1
	// MsgAux is an auxiliary message (Alg. 1 line 8): carries Set, the
	// sender's contestants at broadcast time.
	MsgAux
	// MsgVote and MsgCand are the two message types of the SBA* binary
	// reduction (internal/sba): a step-1 vote and a step-2 candidate. Both
	// carry Value.
	MsgVote
	MsgCand
)

// kindNames is the name table of MsgKind, indexed by kind.
var kindNames = [...]string{"", "BV", "AUX", "VOTE", "CAND"}

// String returns the kind's name; a kind outside the table renders as
// MsgKind(k), which no decoder accepts.
func (k MsgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// ParseMsgKind returns the kind named name, and whether the name is in the
// table ("" names kind 0).
func ParseMsgKind(name string) (MsgKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return MsgKind(k), true
		}
	}
	return 0, false
}

// ValueSet is a set of binary values as a bit mask: bit v stands for value v
// (0 or 1), and SetMalformed for any other value a list named. Receivers
// read an announcement this way (a set naming another value is malformed
// whatever else it names), so two lists with one mask are one message:
// [1,0] is [0,1], and [0,0] is [0].
type ValueSet uint8

// The value sets binary consensus sends, and the malformed bit.
const (
	SetZero ValueSet = 1 << iota
	SetOne
	// SetMalformed marks a list that named a value other than 0 and 1. Its
	// canonical list writes it as the value 2.
	SetMalformed

	SetBoth = SetZero | SetOne
)

// SetOf returns the set of the listed values.
func SetOf(vals ...int) ValueSet {
	var s ValueSet
	for _, v := range vals {
		switch v {
		case 0:
			s |= SetZero
		case 1:
			s |= SetOne
		default:
			s |= SetMalformed
		}
	}
	return s
}

// Has reports whether v is in the set (never, for v other than 0 and 1).
func (s ValueSet) Has(v int) bool { return (v == 0 || v == 1) && s&(1<<v) != 0 }

// Values returns the set's canonical list: its values in ascending order,
// SetMalformed as 2, nil for the empty set.
func (s ValueSet) Values() []int {
	var out []int
	for v := 0; v <= 2; v++ {
		if s&(1<<v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// Message is a point-to-point message. Round tags implement
// communication-closure: receivers buffer future rounds and never act on
// past ones. It is six words and holds no pointer, so copying one is a
// few register moves and a slice of them is not scanned by the collector
// (DESIGN.md § "The Message layout").
type Message struct {
	From  ProcID
	To    ProcID
	Round int
	Value int // MsgBV, MsgVote, MsgCand

	// Seq tags one enqueued copy of a message. The base reliable network
	// leaves it as sent; a fault layer installed via SendTap stamps it to
	// track per-copy metadata (delays, duplicates) across the in-flight
	// multiset. Two copies of the same logical message differ only in Seq.
	Seq int64

	Kind MsgKind
	Set  ValueSet // MsgAux
}

// Stamp is what the send tap decides for one copy of a sent message: its
// Seq tag and the earliest step it may deliver (0 = immediately).
type Stamp struct {
	Seq       int64
	NotBefore int
}

// MsgKey is a message's content identity: every field except the per-copy
// Seq tag, as one comparable value. Retransmitted or duplicated copies of one
// logical message share a key. The bus interns it with To erased into a
// content id (see busStore.intern), so (id, To) is the same identity as
// MsgKey, and that pair is what the fault plane's per-message budgets count
// against. Two keys are equal exactly when the messages agree field for
// field, the Set compared as a mask.
type MsgKey struct {
	from, to     ProcID
	round, value int
	kind         MsgKind
	set          ValueSet
}

// Key returns the message's content identity.
func (m Message) Key() MsgKey {
	return MsgKey{from: m.From, to: m.To, round: m.Round, value: m.Value, kind: m.Kind, set: m.Set}
}

func (m Message) String() string {
	switch m.Kind {
	case MsgBV:
		return fmt.Sprintf("BV(r%d,%d) %d->%d", m.Round, m.Value, m.From, m.To)
	case MsgVote, MsgCand:
		return fmt.Sprintf("%s(r%d,%d) %d->%d", m.Kind, m.Round, m.Value, m.From, m.To)
	default:
		vals := m.Set.Values()
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = strconv.Itoa(v)
		}
		return fmt.Sprintf("AUX(r%d,{%s}) %d->%d", m.Round, strings.Join(strs, ","), m.From, m.To)
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

// Scheduler resolves asynchrony: given the in-flight copies deliverable now,
// in send order, it picks the index of the next one to deliver. It fully
// determines the adversarial message ordering. Returning Tick delivers
// nothing but still advances simulated time. Copies the fault plane holds (a
// pending delay, a cut link) are not in the view; while every in-flight copy
// is held the System ticks without consulting the Scheduler.
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

// Options configure a System beyond processes and scheduler.
type Options struct {
	Bus BusOptions
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

	bus     *busStore
	native  *NativeOptions
	started bool
	sender  ProcID // process currently executing Start/Deliver

	// native-mode scratch, reused across windows
	drains     []peerDrain
	egressUsed []int

	// tapMsg is the message SendTap is handed: content tapID (once tapSet)
	// with each copy's To and Seq written in, so a broadcast's copies share
	// one copy out of the content table.
	tapMsg Message
	tapID  uint32
	tapSet bool

	// Trace records every delivered message when enabled.
	Trace       []Message
	RecordTrace bool
	Steps       int
	DroppedPast int // deliveries to finished processes etc. (diagnostics)

	// SendTap, when non-nil, interposes on the send path after the sender
	// identity is stamped and the content interned: it gets the message and
	// its content id, and returns one Stamp per copy to enqueue (nil = the
	// message is dropped). Every copy carries m's content; the tap decides
	// only how many copies there are, their Seq tags and their delays. It is
	// the fault-injection hook of internal/faults; the base network is
	// reliable and enqueues one copy stamped {m.Seq, 0}. The content id is
	// stable for the System's lifetime and equal for two messages exactly
	// when their Keys agree but for To, so (id, m.To) can key per-message
	// tallies. m points at the System's own scratch message: the tap must
	// neither modify it nor keep the pointer past the call (copy *m to keep
	// it). The System is the only caller and has enqueued every returned copy
	// before it sends again, so a tap may hand back the same scratch slice on
	// every call.
	SendTap func(m *Message, id uint32) []Stamp

	// CutTap reports whether the physical from->to link is severed at the
	// given step (partitions); a copy on a severed link stays queued. It
	// must be pure: native workers call it concurrently.
	CutTap func(from, to ProcID, step int) bool

	// StepTap observes the clock before any delivery: at the top of each
	// native window, and before the Scheduler is consulted.
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
	delivered int64     // messages handed to the process
	trace     []Message // the same messages in pop order, under RecordTrace
	// Handler output, in emission order: contents holds each distinct
	// message a run of sends carried (a broadcast is one entry), sends one
	// record per send. Drain workers never write the bus's content table,
	// so handler output waits here for the merge to intern it.
	contents []Message
	sends    []drainSend
	send     Sender     // appends to sends; built once, handed to every Deliver
	relays   []busEntry // in-transit entries to forward at merge
	taken    int        // entries popped (delivered + filtered + relayed)
	filtered int64      // dupemap suppressions at delivery time
}

// drainSend is one buffered handler send: contents[content] addressed to to.
type drainSend struct {
	content int32
	to      ProcID
}

// buffer records one handler send, sharing the previous content entry when
// the message differs from it only in To.
func (d *peerDrain) buffer(m Message) {
	if n := len(d.contents); n == 0 || !sameContent(&d.contents[n-1], &m) || d.contents[n-1].Seq != m.Seq {
		d.contents = append(d.contents, m)
	}
	d.sends = append(d.sends, drainSend{content: int32(len(d.contents) - 1), to: m.To})
}

// NewSystem builds a system over the given processes with default bus
// options: unbounded queues, no replay filter, full mesh.
func NewSystem(procs []Process, sched Scheduler) (*System, error) {
	return NewSystemOpts(procs, sched, Options{})
}

// NewSystemOpts builds a system with explicit bus and drain-mode options.
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
			s.drains[i].send = s.drains[i].buffer
		}
		s.egressUsed = make([]int, len(s.order))
	}
	return s, nil
}

// BusStats returns a snapshot of the bus counters.
func (s *System) BusStats() BusStats {
	return s.bus.stats
}

// StallEvents returns the first stall transitions observed (capped), and
// Stalled the set of currently-stalled peers.
func (s *System) StallEvents() []StallEvent {
	return s.bus.stallLog
}

// Stalled returns the peers currently flagged by the stall detector.
func (s *System) Stalled() []ProcID {
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
	dst, ok := s.bus.queueIndex(m.To)
	if !ok {
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
				return
			}
			q.egress = append(q.egress, m)
			return
		}
		s.egressUsed[fi]++
	}
	s.release(s.bus.intern(&m), m.From, dst, m.Seq)
}

// release puts one sent copy of content id on the wire, from -> the peer at
// queue index dst: it enqueues one copy per stamp the send tap returns, or
// one copy stamped seq when no tap is installed.
func (s *System) release(id uint32, from ProcID, dst int, seq int64) {
	if s.SendTap == nil {
		s.bus.enqueue(id, from, dst, Stamp{Seq: seq})
		return
	}
	if !s.tapSet || s.tapID != id {
		s.tapMsg, s.tapID, s.tapSet = s.bus.contents[id], id, true
	}
	s.tapMsg.To, s.tapMsg.Seq = s.bus.ids[dst], seq
	for _, st := range s.SendTap(&s.tapMsg, id) {
		s.bus.enqueue(id, from, dst, st)
	}
}

// Inflight returns the number of undelivered messages (including native-mode
// deferred egress).
func (s *System) Inflight() int {
	n := s.bus.size
	if s.native != nil && s.bus.opts.EgressCap > 0 {
		n += s.bus.egressPending()
	}
	return n
}

// Inject enqueues a message from outside any handler (scripted adversaries,
// fault-plane tests). Unlike in-handler sends the sender identity is taken
// from the message itself; the message still passes through SendTap, and the
// obs counters count it before Inject returns.
func (s *System) Inject(m Message) {
	s.sender = m.From
	s.send(m)
	s.bus.publish()
}

// start runs every process's Start hook once.
func (s *System) start() {
	s.started = true
	for _, id := range s.order {
		s.sender = id
		s.procs[id].Start(s.send)
	}
}

// Step delivers the deliverable copy the Scheduler picks (after starting all
// processes on the first call); when nothing is deliverable, or the
// Scheduler returns Tick, the step only advances time. It reports false once
// the system is quiescent. In native mode one Step is one drain window
// instead (see stepWindow). Either way the bus's obs counters are brought up
// to its BusStats before Step returns (see busStore.publish).
func (s *System) Step() (progressed bool, err error) {
	if s.native != nil {
		progressed, err = s.stepWindow()
	} else {
		progressed, err = s.stepScheduled()
	}
	s.bus.publish()
	return progressed, err
}

// stepScheduled is one Step under the Scheduler.
func (s *System) stepScheduled() (bool, error) {
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
	if s.StepTap != nil {
		s.StepTap(s.Steps)
	}
	view := s.bus.compatView(s.Steps, s.CutTap)
	idx := Tick // nothing deliverable: time passes until a hold expires
	if len(view) > 0 {
		idx = s.sched.Next(view, s.Steps)
	}
	if idx == Tick {
		s.Steps++
		s.tick()
		return true, nil
	}
	if idx < 0 || idx >= len(view) {
		return false, fmt.Errorf("network: scheduler chose out-of-range message %d of %d", idx, len(view))
	}
	s.Steps++
	e := s.bus.takeCompat(idx, s.Steps)
	s.bus.scanStalls(s.Steps)
	if q := &s.bus.queues[e.dst]; q.seen != nil && !q.seen.add(e.id) {
		// Replay filter (opt-in): the copy is consumed but not delivered;
		// the step still advances simulated time.
		s.bus.stats.Filtered++
		s.tick()
		return true, nil
	}
	s.bus.stats.Delivered++
	m := s.bus.message(&e)
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
