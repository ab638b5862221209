// Package faults is the fault-injection plane for the protocol simulator: it
// drives any front-end in its protocol table (dbft, sba — see frontEnds in
// chaos.go) through the protocol.Replica contract, one Scenario.Run for all. The
// paper (Section 2) assumes an asynchronous but *reliable* network: every
// sent message is eventually delivered, processes never crash, links never
// partition. This package relaxes each of those assumptions executably —
// message drops, duplication, reordering delays, link partitions with
// scheduled healing, crash-stop and crash-recovery — so that the safety
// results (schedule- and fault-independent) and the liveness results
// (requiring eventual delivery, the fairness precondition of Theorem 6) can
// be stress-tested under exactly the fault mixes the proofs distinguish.
//
// A FaultPlan is a deterministic, seeded, serializable description of the
// faults; an Injector interposes the plan on a network.System through the
// taps the simulator exposes, the same in both delivery models: the send tap
// drops, duplicates and delays outgoing copies, returning one stamp (Seq and
// earliest delivery step) per copy to enqueue, the cut tap holds copies on
// partitioned links, and the step tap keeps the injector's clock. A held
// copy stays in flight; while every copy is held the system ticks until a
// cut heals or a delay expires. Crash faults wrap processes: deliveries into
// a crash window are consumed and lost, and on recovery a snapshot-capable
// process reboots from its synchronously persisted state (see
// protocol.Replica for why persistence must be synchronous).
//
// Per-fault budgets make unfairness a choice rather than an accident: a
// drop rule with a nonnegative budget drops at most that many copies of any
// one logical message, so with retransmission enabled eventual delivery
// holds *by construction* and Termination remains provable; a negative
// budget (or a never-healing partition) is deliberately unfair and is the
// fault-plane analogue of the Lemma 7 adversary.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/network"
	"repro/internal/protocol"
)

// DropRule describes one class of message loss.
type DropRule struct {
	// Kind restricts the rule to the message kind of that name ("" = any;
	// Validate holds it to the protocol's two kinds).
	Kind string `json:"kind,omitempty"`
	// ParityBV restricts the rule to BV messages carrying their round's
	// parity value — the messages whose timely delivery makes a round good
	// (Definition 2). Dropping them unboundedly starves fairness exactly the
	// way the Lemma 7 schedule does.
	ParityBV bool `json:"parity_bv,omitempty"`
	// Prob is the per-copy drop probability (1 = always).
	Prob float64 `json:"prob"`
	// Budget caps how many copies of any one logical message the rule may
	// drop; a negative budget is unbounded (unfair).
	Budget int `json:"budget"`
}

func (r *DropRule) matches(m *network.Message) bool {
	if r.Kind != "" && m.Kind.String() != r.Kind {
		return false
	}
	if r.ParityBV && (m.Kind != network.MsgBV || m.Value != m.Round%2) {
		return false
	}
	return true
}

// Partition is a scheduled link cut between GroupA and its complement.
// Crossing messages are held in flight (not lost) and become deliverable
// again once the cut heals — reliable links, temporarily severed.
type Partition struct {
	Start int `json:"start"`
	// Heal is the first step at which the cut is gone; negative = never
	// (unfair).
	Heal   int              `json:"heal"`
	GroupA []network.ProcID `json:"group_a"`
}

func (p Partition) activeAt(step int) bool {
	return step >= p.Start && (p.Heal < 0 || step < p.Heal)
}

func (p Partition) cuts(from, to network.ProcID) bool {
	inA := func(id network.ProcID) bool {
		for _, a := range p.GroupA {
			if a == id {
				return true
			}
		}
		return false
	}
	return inA(from) != inA(to)
}

// Crash takes a process down at step At. A nonnegative Recover step brings
// it back (crash-recovery: state reboots from the synchronously persisted
// snapshot, deliveries during the window are lost); a negative Recover is
// crash-stop, which counts against the fault budget t.
type Crash struct {
	Proc    network.ProcID `json:"proc"`
	At      int            `json:"at"`
	Recover int            `json:"recover"`
}

func (c Crash) downAt(step int) bool {
	return step >= c.At && (c.Recover < 0 || step < c.Recover)
}

// Plan is a complete, seeded, serializable fault campaign for one run. The
// zero plan injects nothing.
type Plan struct {
	// Seed drives every coin the injector flips; identical plans yield
	// identical executions, which is what makes violations replayable.
	Seed int64 `json:"seed"`

	Drops []DropRule `json:"drops,omitempty"`

	// DupProb duplicates an outgoing copy with this probability, at most
	// DupBudget extra copies per logical message (0 = 1).
	DupProb   float64 `json:"dup_prob,omitempty"`
	DupBudget int     `json:"dup_budget,omitempty"`

	// DelayProb holds an enqueued copy for DelaySteps extra steps before it
	// becomes deliverable — bounded reordering.
	DelayProb  float64 `json:"delay_prob,omitempty"`
	DelaySteps int     `json:"delay_steps,omitempty"`

	Partitions []Partition `json:"partitions,omitempty"`
	Crashes    []Crash     `json:"crashes,omitempty"`

	// Storage schedules write-point storage faults (kill, torn, flip,
	// nosync) against durable replicas' WALs; it only has effect in a
	// durable scenario (see Scenario.Durable and storage.go).
	Storage []StorageFault `json:"storage,omitempty"`
}

// FairDelivery reports whether the plan preserves eventual delivery by
// construction: every drop budget is bounded and every partition heals.
// (Duplication and finite delays never threaten it; crash windows lose
// deliveries but retransmission re-sends them, and crash-stop processes
// count against the fault budget rather than against link fairness.)
// Termination is asserted exactly for fair plans; unfair plans are the
// executable Lemma 7 regime.
func (p Plan) FairDelivery() bool {
	for _, d := range p.Drops {
		if d.Budget < 0 {
			return false
		}
	}
	for _, pt := range p.Partitions {
		if pt.Heal < 0 {
			return false
		}
	}
	return true
}

// CrashStops returns the processes the plan takes down forever; they count
// against the tolerated fault budget t.
func (p Plan) CrashStops() []network.ProcID {
	var out []network.ProcID
	for _, c := range p.Crashes {
		if c.Recover < 0 {
			out = append(out, c.Proc)
		}
	}
	for _, f := range p.Storage {
		if f.Recover < 0 {
			out = append(out, f.Proc)
		}
	}
	return out
}

// Encode renders the plan as compact JSON (the replayable form printed on
// violations).
func (p Plan) Encode() string {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("faults: unencodable plan: %v", err)
	}
	return string(b)
}

// ParsePlan decodes a plan from its JSON form.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return Plan{}, fmt.Errorf("faults: bad plan: %w", err)
	}
	return p, nil
}

// UnfairParityDrop is the scripted unfair plan: it drops every copy of
// every parity-valued BV message, unboundedly. No round can ever become
// good, so — like the Lemma 7 schedule — correct processes keep exchanging
// rounds (or starve) without ever deciding, while Agreement and Validity
// hold vacuously.
func UnfairParityDrop(seed int64) Plan {
	return Plan{
		Seed:  seed,
		Drops: []DropRule{{ParityBV: true, Prob: 1, Budget: -1}},
	}
}

// EventKind labels one fault-log entry.
type EventKind string

// Fault-log event kinds.
const (
	EvDrop      EventKind = "drop"    // copy removed on the send path
	EvDuplicate EventKind = "dup"     // extra copy enqueued
	EvDelay     EventKind = "delay"   // copy held for DelaySteps
	EvLost      EventKind = "lost"    // delivery consumed by a crash window
	EvCrash     EventKind = "crash"   // process observed down
	EvRecover   EventKind = "recover" // process rebooted from its snapshot

	// Storage fault events (durable scenarios).
	EvKill       EventKind = "kill"       // killed mid-append
	EvTorn       EventKind = "torn"       // killed with a guaranteed torn frame
	EvFlip       EventKind = "flip"       // killed, then one durable byte flipped
	EvNoSync     EventKind = "nosync"     // killed after a stretch of lying fsyncs
	EvReplay     EventKind = "replay"     // state rebuilt from the WAL
	EvQuarantine EventKind = "quarantine" // WAL unrecoverable; replica retired
)

// Event is one structured fault-log entry. Step is the network.System step
// counter, the shared clock that interleaves this log with the delivery
// trace of network/trace.
type Event struct {
	Step int
	Kind EventKind
	Proc network.ProcID  // crash/recover/lost subject
	Msg  network.Message // affected message, when applicable
}

func (e Event) String() string {
	switch e.Kind {
	case EvCrash, EvRecover, EvKill, EvTorn, EvFlip, EvNoSync, EvReplay, EvQuarantine:
		return fmt.Sprintf("step %4d  %-7s p%d", e.Step, e.Kind, e.Proc)
	case EvLost:
		return fmt.Sprintf("step %4d  %-7s p%d <- %s", e.Step, e.Kind, e.Proc, e.Msg)
	default:
		return fmt.Sprintf("step %4d  %-7s %s", e.Step, e.Kind, e.Msg)
	}
}

// FormatEvents renders the fault log; limit > 0 truncates.
func FormatEvents(events []Event, limit int) string {
	var b strings.Builder
	shown := len(events)
	if limit > 0 && limit < shown {
		shown = limit
	}
	for i := 0; i < shown; i++ {
		fmt.Fprintf(&b, "%s\n", events[i])
	}
	if shown < len(events) {
		fmt.Fprintf(&b, "      ... %d more fault events\n", len(events)-shown)
	}
	return b.String()
}

// CountEvents tallies the log by kind.
func CountEvents(events []Event) map[EventKind]int {
	out := map[EventKind]int{}
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// Injector executes a Plan against one network.System. Install sets the
// system's taps: SendTap drops, duplicates and delays (a delay is the copy's
// earliest delivery step, stamped on the copy), CutTap severs partitioned
// links and StepTap advances the injector's clock. The system's own
// Scheduler, or native drain mode, then picks among the copies the taps
// leave deliverable. Wrap realizes crash windows around the processes. All
// randomness comes from the plan seed; the injector is fully deterministic.
type Injector struct {
	Plan Plan
	rng  *rand.Rand

	// events is the fault log (see Events), in fixed-size chunks of
	// eventChunk so that it never copies itself to grow. mu guards it. In
	// the bus's native drain mode crash-window events (EvLost, EvCrash,
	// EvRecover) are logged from parallel drain workers; everything else
	// stays on the coordinator goroutine. Parallel runs canonicalize event
	// order before fingerprinting (see Fingerprint).
	events [][]Event
	mu     sync.Mutex

	step      int
	seq       int64
	dropCount map[dropKey]int // per-rule, per-message drop tally
	// tallied[to] is a bitset over content ids marking the logical messages
	// to receiver to that hold a dropCount entry under some rule; see
	// dropTally.
	tallied  [][]uint64
	dupCount map[copyKey]int // per-message duplicate tally
	// out backs SendTap's result: the original and at most one duplicate.
	out [2]network.Stamp

	// Durable-scenario state (see storage.go). stores maps each durable
	// replica to its WAL; storageDown holds replicas killed at a write point
	// until the given step; quarantined replicas are down forever with the
	// recorded reason. risky marks replicas whose scheduled storage faults
	// can erase released history — they are budgeted like Byzantine
	// processes and excluded from the clean-replica assertions.
	stores      map[network.ProcID]*replicaStore
	storageDown map[network.ProcID]int
	quarantined map[network.ProcID]string
	risky       map[network.ProcID]bool

	// auxSeen backs the equivocation oracle: first released AUX set per
	// (clean replica, round). Contradictions collects conflicts — a
	// recovered replica contradicting its own pre-crash messages.
	auxSeen        map[auxKey]network.ValueSet
	Contradictions []string
	// SilentCorruptions collects flip-oracle hits: corrupted frames that
	// recovery accepted without a checksum error.
	SilentCorruptions []string
}

// NewInjector builds an injector for the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{
		Plan:        plan,
		rng:         rand.New(rand.NewSource(plan.Seed)),
		dropCount:   map[dropKey]int{},
		dupCount:    map[copyKey]int{},
		stores:      map[network.ProcID]*replicaStore{},
		storageDown: map[network.ProcID]int{},
		quarantined: map[network.ProcID]string{},
		risky:       map[network.ProcID]bool{},
		auxSeen:     map[auxKey]network.ValueSet{},
	}
}

// AttachStore gives a replica a durable WAL; its crash hook reports storage
// kills back to the injector. Risky-fault replicas are remembered so the
// safety assertions can budget them as Byzantine-equivalent.
func (inj *Injector) AttachStore(id network.ProcID, st *replicaStore) {
	inj.stores[id] = st
	st.fs.onCrash = func(f StorageFault) { inj.storageCrash(id, f) }
	for _, f := range st.fs.faults {
		if f.Risky() {
			inj.risky[id] = true
		}
	}
}

// Risky reports whether a replica's scheduled storage faults can cause
// amnesia (it is excluded from the clean-replica assertions).
func (inj *Injector) Risky(id network.ProcID) bool { return inj.risky[id] }

// storageCrash records a write-point kill: the event, and the down window.
func (inj *Injector) storageCrash(id network.ProcID, f StorageFault) {
	kind := EvKill
	switch f.Kind {
	case StoreTorn:
		kind = EvTorn
	case StoreFlip:
		kind = EvFlip
	case StoreNoSync:
		kind = EvNoSync
	}
	inj.log(kind, id, network.Message{})
	if f.Recover < 0 {
		inj.storageDown[id] = forever
	} else {
		inj.storageDown[id] = inj.step + f.Recover
	}
}

// forever is a down-until step no run reaches.
const forever = int(^uint(0) >> 1)

// quarantineProc retires a replica whose WAL is unrecoverable: detected
// corruption is a crash-stop, never silent acceptance.
func (inj *Injector) quarantineProc(id network.ProcID, reason string) {
	inj.quarantined[id] = reason
	inj.storageDown[id] = forever
	inj.log(EvQuarantine, id, network.Message{})
}

// IsQuarantined reports whether the replica has been retired.
func (inj *Injector) IsQuarantined(id network.ProcID) bool {
	_, ok := inj.quarantined[id]
	return ok
}

// Quarantined lists retired replicas in id order.
func (inj *Injector) Quarantined() []network.ProcID {
	var out []network.ProcID
	for id := range inj.quarantined {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// auxKey names one replica's AUX of one round.
type auxKey struct {
	id    network.ProcID
	round int
}

// recordRelease is the equivocation oracle tap on every message a clean
// durable replica releases. A correct process sends at most one AUX per
// round, always with the same contestant set; two different sets mean a
// recovered replica contradicted its pre-crash self.
func (inj *Injector) recordRelease(id network.ProcID, m network.Message) {
	if m.Kind != network.MsgAux || inj.risky[id] {
		return
	}
	k := auxKey{id: id, round: m.Round}
	prev, ok := inj.auxSeen[k]
	if !ok {
		inj.auxSeen[k] = m.Set
		return
	}
	if prev != m.Set {
		// The "i0" is the instance of the retired vector consensus,
		// kept so the text, and every fingerprint over it, stays the same.
		key := "p" + strconv.Itoa(int(id)) + " i0 r" + strconv.Itoa(m.Round)
		inj.Contradictions = append(inj.Contradictions,
			key+": aux "+setText(m.Set)+" contradicts earlier aux "+setText(prev))
	}
}

// setText renders a set as fmt's %v renders its canonical list: [0 1].
func setText(s network.ValueSet) string {
	b := []byte{'['}
	for i, v := range s.Values() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ']'))
}

// Install sets the system's three taps: the send path, which also stamps
// per-copy delays (SendTap), partitions checked when the system looks for
// deliverable copies (CutTap), and the injector clock following the
// system's (StepTap).
func (inj *Injector) Install(sys *network.System) {
	sys.SendTap = inj.SendTap
	sys.CutTap = inj.cut
	sys.StepTap = inj.observeStep
}

// copyKey is one logical message at the injector: the bus's content id and
// the destination, which together are the message's network.MsgKey (the
// content minus the per-copy Seq tag) in two integers.
type copyKey struct {
	to network.ProcID
	id uint32
}

// dropKey scopes a drop budget: one rule's tally for one logical message.
// Its fields fill 16 bytes without padding, so the map hashes it in one go.
type dropKey struct {
	to   network.ProcID
	id   uint32
	rule int32
}

// talliedReceivers bounds the receiver ids tallied covers; a receiver outside
// [0, talliedReceivers) always has its tallies read from dropCount.
const talliedReceivers = 1 << 16

// dropTally is dropCount[k], read from the map only when k's bit in tallied
// is set. A (receiver, content) pair gets its bit on its first drop, under
// any rule, and never loses it, so a clear bit means no rule has a tally
// for it: 0, exactly what the map would return. Nearly every copy is a
// first copy, so this replaces a 16-byte hash with a bit test.
func (inj *Injector) dropTally(k dropKey) int {
	if k.to >= 0 && k.to < talliedReceivers {
		if int(k.to) >= len(inj.tallied) {
			return 0
		}
		bits := inj.tallied[k.to]
		if w := int(k.id / 64); w >= len(bits) || bits[w]&(1<<(k.id%64)) == 0 {
			return 0
		}
	}
	return inj.dropCount[k]
}

// markTallied sets the tallied bit of content id to receiver to.
func (inj *Injector) markTallied(to network.ProcID, id uint32) {
	if to < 0 || to >= talliedReceivers {
		return
	}
	if int(to) >= len(inj.tallied) {
		inj.tallied = append(inj.tallied, make([][]uint64, int(to)+1-len(inj.tallied))...)
	}
	w := int(id / 64)
	if w >= len(inj.tallied[to]) {
		inj.tallied[to] = append(inj.tallied[to], make([]uint64, w+1-len(inj.tallied[to]))...)
	}
	inj.tallied[to][w] |= 1 << (id % 64)
}

// eventChunk is the fault log's allocation unit.
const eventChunk = 256

func (inj *Injector) log(kind EventKind, proc network.ProcID, m network.Message) {
	inj.mu.Lock()
	n := len(inj.events)
	if n == 0 || len(inj.events[n-1]) == eventChunk {
		inj.events = append(inj.events, make([]Event, 0, eventChunk))
		n++
	}
	inj.events[n-1] = append(inj.events[n-1], Event{Step: inj.step, Kind: kind, Proc: proc, Msg: m})
	inj.mu.Unlock()
}

// Events returns the fault log in append order, flattened into one slice of
// exactly its length (nil when nothing was logged).
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return slices.Concat(inj.events...)
}

func (inj *Injector) stamp() network.Stamp {
	inj.seq++
	return network.Stamp{Seq: inj.seq}
}

// withSeq is m as the copy stamped st, for the fault log.
func withSeq(m network.Message, st network.Stamp) network.Message {
	m.Seq = st.Seq
	return m
}

// SendTap implements the network.System send hook for message m, whose
// content the bus interned as id: it returns one stamp per copy to enqueue
// — none when a drop rule fires, a second one when a duplicate is injected —
// each with its delay as NotBefore. The returned slice is the injector's own
// scratch, valid until the next call; m is only read, and the fault log
// keeps copies of it, never the pointer (see System.SendTap).
func (inj *Injector) SendTap(m *network.Message, id uint32) []network.Stamp {
	for i := range inj.Plan.Drops {
		rule := &inj.Plan.Drops[i]
		if !rule.matches(m) {
			continue
		}
		ruleKey := dropKey{to: m.To, id: id, rule: int32(i)}
		if rule.Budget >= 0 && inj.dropTally(ruleKey) >= rule.Budget {
			continue
		}
		if rule.Prob < 1 && inj.rng.Float64() >= rule.Prob {
			continue
		}
		inj.dropCount[ruleKey]++
		inj.markTallied(m.To, id)
		inj.log(EvDrop, m.To, *m)
		return nil
	}

	out := append(inj.out[:0], inj.stamp())
	if inj.Plan.DupProb > 0 && inj.rng.Float64() < inj.Plan.DupProb {
		budget := inj.Plan.DupBudget
		if budget <= 0 {
			budget = 1
		}
		if key := (copyKey{to: m.To, id: id}); inj.dupCount[key] < budget {
			inj.dupCount[key]++
			d := inj.stamp()
			inj.log(EvDuplicate, m.To, withSeq(*m, d))
			out = append(out, d)
		}
	}
	if inj.Plan.DelayProb > 0 && inj.Plan.DelaySteps > 0 {
		for i := range out {
			if inj.rng.Float64() < inj.Plan.DelayProb {
				out[i].NotBefore = inj.step + inj.Plan.DelaySteps
				inj.log(EvDelay, m.To, withSeq(*m, out[i]))
			}
		}
	}
	return out
}

// observeStep advances the injector clock. The system reports its clock
// before it looks for a deliverable copy, but a fully drained network (every
// correct replica down at once) skips that — only ticks still flow, and
// OnTick reports the clock too. Without it the clock freezes and no recovery
// window can ever expire.
func (inj *Injector) observeStep(step int) {
	if step > inj.step {
		inj.step = step
	}
}

func (inj *Injector) cut(from, to network.ProcID, step int) bool {
	for _, p := range inj.Plan.Partitions {
		if p.activeAt(step) && p.cuts(from, to) {
			return true
		}
	}
	return false
}

// downNow reports whether the plan has the process crashed at the current
// step.
func (inj *Injector) downNow(id network.ProcID) bool {
	for _, c := range inj.Plan.Crashes {
		if c.Proc == id && c.downAt(inj.step) {
			return true
		}
	}
	if until, ok := inj.storageDown[id]; ok && inj.step < until {
		return true
	}
	return false
}

// Wrap interposes crash handling on every process. The returned slice is
// what the network.System must be built from. A protocol.Replica survives a
// crash window with only the window's deliveries lost: with an attached
// replicaStore it persists to (and recovers from) its WAL, otherwise it
// reboots from the in-memory snapshot of the non-durable plane. Processes
// without the snapshot contract (the Byzantine strategies) are
// paused-with-memory instead — the crash degrades to an omission fault.
func (inj *Injector) Wrap(procs []network.Process) []network.Process {
	out := make([]network.Process, len(procs))
	for i, p := range procs {
		w := &wrapProc{inner: p, inj: inj}
		if r, ok := p.(protocol.Replica); ok {
			w.rep = r
			if st := inj.stores[p.ID()]; st != nil {
				st.rec = r
				w.store = st
			}
		}
		// The in-memory snapshot regime is only consumed by revive() after a
		// scheduled crash window on the non-durable path (storage faults and
		// quarantine only ever down replicas that recover from their WAL).
		// Snapshotting encodes the whole round state — O(n) map entries per
		// delivery — so skip it entirely for replicas the plan can never
		// crash; at thousands of replicas it would otherwise dominate the
		// run.
		if w.store == nil {
			for _, c := range inj.Plan.Crashes {
				if c.Proc == p.ID() {
					w.volatileCrash = true
					break
				}
			}
		}
		out[i] = w
	}
	return out
}

// wrapProc realizes crash windows around one process: while down, incoming
// deliveries and ticks are consumed and lost; on the first event after the
// window it reboots — from its WAL when durable, from the last in-memory
// snapshot otherwise — and rejoins.
type wrapProc struct {
	inner network.Process
	inj   *Injector
	store *replicaStore

	// rep is inner's snapshot contract; nil for processes without one.
	rep protocol.Replica

	started bool
	down    bool
	// volatileCrash marks replicas the plan crashes on the non-durable path —
	// the only consumers of the per-delivery in-memory snapshot below.
	volatileCrash bool
	snap          []byte
}

var _ network.Process = (*wrapProc)(nil)
var _ network.Ticker = (*wrapProc)(nil)

func (w *wrapProc) ID() network.ProcID { return w.inner.ID() }

func (w *wrapProc) Start(send network.Sender) {
	if w.observeDown() {
		return
	}
	if w.store != nil {
		w.startDurable(send)
		return
	}
	w.started = true
	w.inner.Start(send)
	w.persist()
}

// startDurable runs Start under persist-before-release: the post-Start state
// becomes the WAL's base snapshot before any of Start's sends go out.
func (w *wrapProc) startDurable(send network.Sender) {
	var buf []network.Message
	w.inner.Start(func(m network.Message) { buf = append(buf, m) })
	if err := w.store.begin(); err != nil {
		w.storageFailure(err)
		return
	}
	w.started = true
	w.release(buf, send)
}

func (w *wrapProc) Deliver(m network.Message, send network.Sender) {
	if w.observeDown() {
		w.inj.log(EvLost, w.ID(), m)
		return
	}
	if !w.revive(send) {
		w.inj.log(EvLost, w.ID(), m)
		return
	}
	if w.store != nil {
		// Persist-before-release: buffer the handler's sends, append the
		// delivered message to the WAL, and only then let the sends out. A
		// kill during the append loses only state nobody else has seen, so
		// clean-crash recovery can never equivocate.
		var buf []network.Message
		w.inner.Deliver(m, func(out network.Message) { buf = append(buf, out) })
		if err := w.store.appendMsg(m); err != nil {
			w.storageFailure(err)
			w.inj.log(EvLost, w.ID(), m)
			return
		}
		w.release(buf, send)
		return
	}
	w.inner.Deliver(m, send)
	w.persist()
}

func (w *wrapProc) OnTick(step int, send network.Sender) {
	w.inj.observeStep(step)
	if w.observeDown() {
		return
	}
	if !w.revive(send) {
		return
	}
	t, ok := w.inner.(network.Ticker)
	if !ok {
		return
	}
	if w.store != nil {
		// Retransmissions re-send already-persisted outbox state; no new
		// persistence is needed, but the equivocation oracle still taps them.
		t.OnTick(step, func(m network.Message) {
			w.inj.recordRelease(w.ID(), m)
			send(m)
		})
		return
	}
	t.OnTick(step, send)
}

// release lets buffered handler output onto the wire, tapping the
// equivocation oracle on the way.
func (w *wrapProc) release(buf []network.Message, send network.Sender) {
	for _, m := range buf {
		w.inj.recordRelease(w.ID(), m)
		send(m)
	}
}

// storageFailure handles an error from the durable path: a kill point means
// the replica is down (the injector already knows); anything else means the
// log itself failed and the replica is retired.
func (w *wrapProc) storageFailure(err error) {
	w.down = true
	w.store.dirty = true
	if !errors.Is(err, ErrKilled) {
		w.inj.quarantineProc(w.ID(), err.Error())
	}
}

// observeDown checks the crash schedule, logging the down transition once.
func (w *wrapProc) observeDown() bool {
	if !w.inj.downNow(w.ID()) {
		return false
	}
	if !w.down {
		w.down = true
		w.inj.log(EvCrash, w.ID(), network.Message{})
	}
	return true
}

// revive performs the reboot on the first event after a crash window and
// reports whether the replica is up. Durable replicas rebuild state from
// disk — base snapshot plus re-delivery of the logged suffix — and an
// unrecoverable log quarantines instead of reviving. A process that crashed
// before its Start finally starts.
func (w *wrapProc) revive(send network.Sender) bool {
	if w.down {
		if w.store != nil {
			if !w.restoreFromDisk() {
				return false
			}
			w.down = false
			w.inj.log(EvRecover, w.ID(), network.Message{})
		} else {
			w.down = false
			w.inj.log(EvRecover, w.ID(), network.Message{})
			if w.snap != nil {
				if err := w.rep.RestoreBytes(w.snap); err != nil {
					panic(err) // bytes this replica encoded itself: a codec bug
				}
			}
		}
	}
	if !w.started {
		if w.store != nil {
			w.startDurable(send)
		} else {
			w.started = true
			w.inner.Start(send)
			w.persist()
		}
	}
	return !w.down
}

// restoreFromDisk is crash-consistent recovery: reopen the WAL (torn tails
// truncate, checksum failures quarantine) and rebuild the replica from it.
func (w *wrapProc) restoreFromDisk() bool {
	fresh, err := w.store.recoverDisk()
	if err != nil {
		w.inj.quarantineProc(w.ID(), err.Error())
		return false
	}
	w.inj.SilentCorruptions = append(w.inj.SilentCorruptions, w.store.takeSilent()...)
	if fresh {
		if w.started {
			// Durable state gone after messages were released: rejoining
			// from scratch could equivocate, so the replica is retired: a
			// quarantine, never a silent fresh start.
			w.inj.quarantineProc(w.ID(), fmt.Sprintf("p%d: wal empty after start (total disk loss)", w.ID()))
			return false
		}
		return true // never started: the Start path below boots it fresh
	}
	w.store.dirty = false
	w.inj.log(EvReplay, w.ID(), network.Message{})
	return true
}

// persist is the synchronous stable write after every handler run — the
// persistence regime under which a recovered replica can never equivocate
// against its pre-crash messages (see protocol.Replica). Durable replicas
// persist through their WAL instead (startDurable / Deliver).
func (w *wrapProc) persist() {
	if w.rep != nil && w.volatileCrash {
		w.snap = w.rep.SnapshotBytes()
	}
}
