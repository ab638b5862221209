package network

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// chatter floods the network deterministically: on start it broadcasts round
// 0 to every peer, and every delivery of a round below the horizon triggers a
// broadcast of the next round. No randomness — traces must be identical
// across partition counts.
type chatter struct {
	id       ProcID
	all      []ProcID
	horizon  int
	received []Message
	seen     map[int]bool
}

func (c *chatter) ID() ProcID { return c.id }
func (c *chatter) Start(send Sender) {
	c.emit(0, send)
}
func (c *chatter) Deliver(m Message, send Sender) {
	c.received = append(c.received, m)
	if m.Round+1 < c.horizon {
		c.emit(m.Round+1, send)
	}
}
func (c *chatter) emit(round int, send Sender) {
	if c.seen == nil {
		c.seen = make(map[int]bool)
	}
	if c.seen[round] {
		return
	}
	c.seen[round] = true
	Broadcast(send, c.all, Message{From: c.id, Round: round, Kind: MsgBV, Value: int(c.id)})
}

func chatterSystem(t *testing.T, n, horizon int, sched Scheduler, opts Options) *System {
	t.Helper()
	all := make([]ProcID, n)
	procs := make([]Process, n)
	for i := range all {
		all[i] = ProcID(i)
	}
	for i := range procs {
		procs[i] = &chatter{id: ProcID(i), all: all, horizon: horizon}
	}
	sys, err := NewSystemOpts(procs, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.RecordTrace = true
	return sys
}

// TestBusCompatMatchesFlat is the byte-identity invariant at network level:
// under an adversarial random scheduler the bus's Scheduler view must
// reproduce the flat reference loop's in-flight slice entry for entry, so
// the same seed yields the same step count and the same delivery trace.
func TestBusCompatMatchesFlat(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1001} {
		const n, horizon = 5, 4
		all := make([]ProcID, n)
		procs := make([]Process, n)
		for i := range all {
			all[i] = ProcID(i)
		}
		for i := range procs {
			procs[i] = &chatter{id: ProcID(i), all: all, horizon: horizon}
		}
		flat := newFlatSystem(procs, RandomScheduler{Rng: rand.New(rand.NewSource(seed))})
		for i := 0; i < 10_000; i++ {
			progressed, err := flat.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !progressed {
				break
			}
		}
		bus := chatterSystem(t, n, horizon, RandomScheduler{Rng: rand.New(rand.NewSource(seed))}, Options{})
		bs, err := bus.Run(10_000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if flat.Steps != bs {
			t.Fatalf("seed %d: steps flat=%d bus=%d", seed, flat.Steps, bs)
		}
		if !reflect.DeepEqual(flat.Trace, bus.Trace) {
			t.Fatalf("seed %d: traces diverge (flat %d entries, bus %d)", seed, len(flat.Trace), len(bus.Trace))
		}
		if bus.BusStats().Delivered != int64(len(bus.Trace)) {
			t.Errorf("seed %d: Delivered=%d trace=%d", seed, bus.BusStats().Delivered, len(bus.Trace))
		}
	}
}

func TestDupemapEviction(t *testing.T) {
	const a, b, c = 1, 2, 3
	d := newDupemap(2)
	if !d.add(a) || !d.add(b) {
		t.Fatal("fresh ids reported as already seen")
	}
	if !d.has(a) || !d.has(b) {
		t.Fatal("fresh ids missing")
	}
	if d.add(a) { // idempotent: must not evict anything
		t.Fatal("re-add of a present id reported it new")
	}
	if !d.has(a) || !d.has(b) {
		t.Fatal("re-add of a present id evicted something")
	}
	d.add(c) // capacity 2: the oldest id (a) goes
	if d.has(a) {
		t.Error("a should have been evicted FIFO")
	}
	if !d.has(b) || !d.has(c) {
		t.Error("b and c should survive")
	}

	// The ring grows with what the receiver has seen, not to the cap up
	// front: at the default cap that was 8,192 slots per peer before the
	// first message.
	d = newDupemap(0)
	for id := uint32(1); id <= 100; id++ {
		d.add(id)
	}
	if d.cap != 8192 || len(d.ring) != 100 || cap(d.ring) >= d.cap {
		t.Errorf("after 100 ids: cap %d, ring len %d cap %d; want 8192, 100, well under 8192", d.cap, len(d.ring), cap(d.ring))
	}
	// Past the cap it wraps in insertion order.
	d = newDupemap(4)
	for id := uint32(1); id <= 10; id++ {
		d.add(id)
	}
	for id := uint32(1); id <= 10; id++ {
		if got, want := d.has(id), id > 6; got != want {
			t.Errorf("cap 4 after ids 1..10: has(%d) = %v, want %v", id, got, want)
		}
	}
	if len(d.ring) != 4 {
		t.Errorf("cap 4: ring holds %d ids", len(d.ring))
	}
}

// TestBusEntrySize: a full mesh holds about n*n queue entries, so their size
// is the simulator's resident memory. An entry names its content by id in the
// bus's content table and holds no Message — nor anything else the garbage
// collector must scan — and its destination, delay, hop count and content
// id are four 32-bit values, so an entry is five words.
func TestBusEntrySize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are for 64-bit ints")
	}
	if got := unsafe.Sizeof(busEntry{}); got > 40 {
		t.Errorf("busEntry is %d bytes, want at most 40", got)
	}
	typ := reflect.TypeOf(busEntry{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Struct, reflect.Slice, reflect.String, reflect.Pointer, reflect.Map, reflect.Interface:
			t.Errorf("busEntry.%s is a %s: an entry holds its content by id, not by value or reference", f.Name, f.Type)
		}
	}
}

// TestMessageSize pins the Message layout: six words with no field the
// garbage collector must scan, so a Message is copied by a few register
// moves and the content table, the Scheduler's view, the egress buffers and
// the fault log hold no pointer (DESIGN.md § "The Message layout").
func TestMessageSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are for 64-bit ints")
	}
	if got := unsafe.Sizeof(Message{}); got != 48 {
		t.Errorf("Message is %d bytes, want 48", got)
	}
	typ := reflect.TypeOf(Message{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface, reflect.Struct, reflect.Array:
			t.Errorf("Message.%s is a %s: a Message holds plain words only", f.Name, f.Type)
		}
	}
}

// TestDupemapFiltersReplays: with the replay filter on, a second copy of an
// already-delivered message is consumed without a delivery — and a copy
// enqueued after its key was delivered is dropped at enqueue time.
func TestDupemapFiltersReplays(t *testing.T) {
	a := &collectProc{id: 0}
	b := &collectProc{id: 1}
	sys, err := NewSystemOpts([]Process{a, b}, FIFOScheduler{}, Options{Bus: BusOptions{Dupemap: true}})
	if err != nil {
		t.Fatal(err)
	}
	m := Message{From: 0, To: 1, Round: 0, Kind: MsgBV, Value: 1}
	dup := m
	dup.Seq = 99 // same Key(), distinct copy
	sys.Inject(m)
	sys.Inject(dup)
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 {
		t.Fatalf("deliveries = %d, want 1 (replay filtered)", len(b.received))
	}
	st := sys.BusStats()
	if st.Filtered != 1 {
		t.Errorf("Filtered = %d, want 1", st.Filtered)
	}
	// Post-delivery enqueue: filtered before it ever occupies queue space.
	sys.Inject(m)
	if sys.Inflight() != 0 {
		t.Errorf("replayed copy occupied the queue: inflight=%d", sys.Inflight())
	}
	if got := sys.BusStats().Filtered; got != 2 {
		t.Errorf("Filtered = %d, want 2", got)
	}
}

func TestQueueCapDrops(t *testing.T) {
	a := &collectProc{id: 0}
	b := &collectProc{id: 1}
	sys, err := NewSystemOpts([]Process{a, b}, FIFOScheduler{}, Options{Bus: BusOptions{QueueCap: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Inject(Message{From: 0, To: 1, Kind: MsgBV, Value: 1})
	sys.Inject(Message{From: 0, To: 1, Kind: MsgBV, Value: 2})
	if got := sys.BusStats().CapDrops; got != 1 {
		t.Fatalf("CapDrops = %d, want 1", got)
	}
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 || b.received[0].Value != 1 {
		t.Errorf("received %v, want exactly the first copy", b.received)
	}
}

// TestCopyOnEnqueueAliasing is the regression test for the aliasing bug
// family: a sender that reuses its message template after the send must not
// reach into copies already in flight. A Message holds no pointer, so the
// bus's content table keeps its own copy by construction.
func TestCopyOnEnqueueAliasing(t *testing.T) {
	a := &collectProc{id: 0}
	b := &collectProc{id: 1}
	sys, err := NewSystem([]Process{a, b}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	template := Message{From: 0, To: 1, Kind: MsgAux, Set: SetBoth}
	sys.Inject(template)
	template.Set = SetOne // reuse after enqueue: the in-flight copy must not see it
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 {
		t.Fatalf("deliveries = %d", len(b.received))
	}
	if got := b.received[0].Set; got != SetBoth {
		t.Errorf("delivered Set = %v, want the pre-reuse {0,1}", got.Values())
	}
}

// TestNativeDeterministicAcrossPartitions: the same workload must produce
// identical traces and counters at any worker partition count — peer-id
// merge order, not goroutine scheduling, defines the semantics.
func TestNativeDeterministicAcrossPartitions(t *testing.T) {
	run := func(parts int) ([]Message, BusStats, int) {
		sys := chatterSystem(t, 9, 5, nil, Options{
			Bus:    BusOptions{QueueCap: 64, Dupemap: true, StallK: 100},
			Native: &NativeOptions{Batch: 2, Partitions: parts},
		})
		if _, err := sys.Run(10_000, nil); err != nil {
			t.Fatal(err)
		}
		return sys.Trace, sys.BusStats(), sys.Steps
	}
	t1, s1, n1 := run(1)
	for _, parts := range []int{2, 4, 16} {
		tp, sp, np := run(parts)
		if n1 != np {
			t.Fatalf("partitions=%d: steps %d != %d", parts, np, n1)
		}
		if !reflect.DeepEqual(t1, tp) {
			t.Fatalf("partitions=%d: trace diverges from sequential drain", parts)
		}
		if s1 != sp {
			t.Fatalf("partitions=%d: stats %+v != %+v", parts, sp, s1)
		}
	}
	if s1.Delivered == 0 {
		t.Fatal("no deliveries — workload broken")
	}
}

// TestNativeHoldAndStallDetection: entries held behind a severed link make no
// progress; after StallK windows the peer is flagged, and the flag clears
// once the link heals and deliveries resume.
func TestNativeHoldAndStallDetection(t *testing.T) {
	a := &pingProc{id: 0, peer: 1}
	b := &pingProc{id: 1, peer: 0}
	sys, err := NewSystemOpts([]Process{a, b}, nil, Options{
		Bus:    BusOptions{StallK: 3},
		Native: &NativeOptions{Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := true
	sys.CutTap = func(from, to ProcID, step int) bool { return cut }
	for i := 0; i < 5; i++ {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Stalled(); len(got) != 2 {
		t.Fatalf("stalled = %v, want both peers (cut link, nonempty queues)", got)
	}
	if evs := sys.StallEvents(); len(evs) == 0 || evs[0].Idle < 3 {
		t.Fatalf("stall events = %+v", evs)
	}
	if sys.BusStats().Stalls != 2 {
		t.Errorf("Stalls = %d, want 2", sys.BusStats().Stalls)
	}
	cut = false
	if _, err := sys.Step(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stalled(); len(got) != 0 {
		t.Errorf("stalled = %v after heal, want none", got)
	}
	if len(a.received) != 1 || len(b.received) != 1 {
		t.Errorf("deliveries a=%d b=%d after heal, want 1 each", len(a.received), len(b.received))
	}
}

// TestNativeStampDelays: a send-tap stamp's NotBefore is honored — the copy
// is skipped (not popped) until the step it becomes eligible.
func TestNativeStampDelays(t *testing.T) {
	a := &pingProc{id: 0, peer: 1}
	b := &sink{id: 1}
	sys, err := NewSystemOpts([]Process{a, b}, nil, Options{Native: &NativeOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	sys.SendTap = func(*Message, uint32) []Stamp { return []Stamp{{NotBefore: 4}} }
	for i := 0; i < 3; i++ {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
		if len(b.received) != 0 {
			t.Fatalf("delivered at step %d, held until 4", sys.Steps)
		}
	}
	if _, err := sys.Step(); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 {
		t.Fatalf("deliveries = %d at step 4, want 1", len(b.received))
	}
}

// TestStampBeyondInt32Held: an entry keeps its delay in 32 bits, and a
// stamp past math.MaxInt32 saturates there rather than wrapping. Under both
// delivery models such a copy stays held, where a wrapped delay would be
// negative and deliver it at once, while a stamp below math.MinInt32 still
// delivers on the first step.
func TestStampBeyondInt32Held(t *testing.T) {
	run := func(native bool, nb int) (delivered, inflight int) {
		b := &sink{id: 1}
		opts := Options{}
		if native {
			opts.Native = &NativeOptions{}
		}
		sys, err := NewSystemOpts([]Process{&pingProc{id: 0, peer: 1}, b}, FIFOScheduler{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sys.SendTap = func(*Message, uint32) []Stamp { return []Stamp{{NotBefore: nb}} }
		for i := 0; i < 8; i++ {
			if _, err := sys.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return len(b.received), sys.Inflight()
	}
	for _, native := range []bool{false, true} {
		for _, nb := range []int{math.MaxInt32 + 1, math.MaxInt32 + 1<<31, 1 << 32, 1<<32 + 3, math.MaxInt} {
			if d, f := run(native, nb); d != 0 || f != 1 {
				t.Errorf("native=%v NotBefore=%d: %d delivered, %d in flight after 8 steps, want the copy held", native, nb, d, f)
			}
		}
		if d, _ := run(native, math.MinInt32-5); d != 1 {
			t.Errorf("native=%v NotBefore=MinInt32-5: %d delivered, want 1", native, d)
		}
	}
}

// panicProc blows up on its first delivery.
type panicProc struct{ id ProcID }

func (p *panicProc) ID() ProcID   { return p.id }
func (p *panicProc) Start(Sender) {}
func (p *panicProc) Deliver(Message, Sender) {
	panic("boom")
}

// TestNativeWorkerPanicContainment: a panic inside a drain worker surfaces as
// an annotated error from Run, for sequential and parallel drains alike.
func TestNativeWorkerPanicContainment(t *testing.T) {
	for _, parts := range []int{1, 2} {
		a := &pingProc{id: 0, peer: 1}
		sys, err := NewSystemOpts([]Process{a, &panicProc{id: 1}}, nil,
			Options{Native: &NativeOptions{Partitions: parts}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Run(100, nil)
		if err == nil {
			t.Fatalf("partitions=%d: panic did not surface", parts)
		}
		if !strings.Contains(err.Error(), "panic in bus worker") || !strings.Contains(err.Error(), "boom") {
			t.Errorf("partitions=%d: error %q lacks worker panic annotation", parts, err)
		}
	}
}

// burstProc sends a burst of three messages on start.
type burstProc struct{ id, peer ProcID }

func (p *burstProc) ID() ProcID { return p.id }
func (p *burstProc) Start(send Sender) {
	for v := 0; v < 3; v++ {
		send(Message{From: p.id, To: p.peer, Kind: MsgBV, Value: v, Seq: int64(v)})
	}
}
func (p *burstProc) Deliver(Message, Sender) {}

// TestNativeEgressCap: sends beyond the per-window budget defer to the
// bounded egress buffer and drain FIFO on later windows — delayed, not lost.
func TestNativeEgressCap(t *testing.T) {
	a := &burstProc{id: 0, peer: 1}
	b := &collectProc{id: 1}
	sys, err := NewSystemOpts([]Process{a, b}, nil, Options{
		Bus:    BusOptions{EgressCap: 1},
		Native: &NativeOptions{Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 3 {
		t.Fatalf("deliveries = %d, want all 3 (deferred, not dropped)", len(b.received))
	}
	for i, m := range b.received {
		if m.Value != i {
			t.Fatalf("delivery order %v, want FIFO", b.received)
		}
	}
	if st := sys.BusStats(); st.EgressDrops != 0 {
		t.Errorf("EgressDrops = %d, want 0", st.EgressDrops)
	}

	// With QueueCap bounding the egress buffer too, the burst overflows:
	// exactly one copy is dropped at the egress bound.
	a2 := &burstProc{id: 0, peer: 1}
	b2 := &collectProc{id: 1}
	sys2, err := NewSystemOpts([]Process{a2, b2}, nil, Options{
		Bus:    BusOptions{EgressCap: 1, QueueCap: 1},
		Native: &NativeOptions{Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	st := sys2.BusStats()
	if st.EgressDrops != 1 {
		t.Errorf("EgressDrops = %d, want 1", st.EgressDrops)
	}
	if int64(len(b2.received))+st.EgressDrops+st.CapDrops != 3 {
		t.Errorf("accounting: delivered=%d egress_drops=%d cap_drops=%d, want total 3",
			len(b2.received), st.EgressDrops, st.CapDrops)
	}
}

// TestKadcastRouting: greedy XOR routing makes strict progress — every route
// terminates within ceil(log2 n)+1 hops and never loops.
func TestKadcastRouting(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 33} {
		k, err := NewKadcast(n)
		if err != nil {
			t.Fatal(err)
		}
		bound := 1
		for 1<<bound < n {
			bound++
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				at, hops := ProcID(src), 0
				for at != ProcID(dst) {
					next := k.NextHop(at, ProcID(dst))
					if next == at {
						t.Fatalf("n=%d: route %d->%d self-loops at %d", n, src, dst, at)
					}
					at = next
					hops++
					if hops > bound+1 {
						t.Fatalf("n=%d: route %d->%d exceeds %d hops", n, src, dst, bound+1)
					}
				}
			}
		}
	}
	if _, err := NewKadcast(1); err == nil {
		t.Error("NewKadcast(1) should error")
	}
}

// TestGossipDeliversThroughRelays: under the sparse topology a message to a
// non-neighbor traverses intermediate peers' queues and still arrives; the
// relay counter proves it did not shortcut.
func TestGossipDeliversThroughRelays(t *testing.T) {
	n := 8
	k, err := NewKadcast(n)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &collectProc{id: ProcID(i)}
	}
	sys, err := NewSystemOpts(procs, nil, Options{
		Bus:    BusOptions{Topology: k},
		Native: &NativeOptions{Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 5 = 0b101: not a single bit flip away, must relay.
	sys.Inject(Message{From: 0, To: 5, Kind: MsgBV, Value: 7})
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	dst := procs[5].(*collectProc)
	if len(dst.received) != 1 || dst.received[0].Value != 7 {
		t.Fatalf("destination received %v", dst.received)
	}
	st := sys.BusStats()
	if st.Relayed == 0 {
		t.Error("Relayed = 0, want at least one hop through a relay queue")
	}
	if st.TTLDrops != 0 {
		t.Errorf("TTLDrops = %d, want 0", st.TTLDrops)
	}

	// Sparse topologies cannot run under the compat Scheduler contract.
	if _, err := NewSystemOpts(procs, FIFOScheduler{}, Options{Bus: BusOptions{Topology: k}}); err == nil {
		t.Error("sparse topology without native mode should be rejected")
	}
}

// TestGossipAllPairsConsensusScale: a fuller sweep — every pair exchanges a
// message over kadcast and everything arrives exactly once (dupemap on).
func TestGossipAllPairsConsensusScale(t *testing.T) {
	n := 16
	k, err := NewKadcast(n)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &collectProc{id: ProcID(i)}
	}
	sys, err := NewSystemOpts(procs, nil, Options{
		Bus:    BusOptions{Topology: k, Dupemap: true},
		Native: &NativeOptions{Batch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			sys.Inject(Message{From: ProcID(src), To: ProcID(dst), Kind: MsgBV, Value: src})
		}
	}
	if _, err := sys.Run(10_000, nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if got := len(p.(*collectProc).received); got != n-1 {
			t.Errorf("peer %d received %d, want %d", i, got, n-1)
		}
	}
}

// TestCompatStallDetection: the stall detector also runs on the compat path —
// a scheduler that starves one peer's queue trips the flag.
func TestCompatStallDetection(t *testing.T) {
	a := &chatter{id: 0, all: []ProcID{0, 1}, horizon: 6}
	b := &chatter{id: 1, all: []ProcID{0, 1}, horizon: 6}
	starve := FuncScheduler(func(inflight []Message, _ int) int {
		for i, m := range inflight {
			if m.To == 0 {
				return i
			}
		}
		return 0
	})
	sys, err := NewSystemOpts([]Process{a, b}, starve, Options{Bus: BusOptions{StallK: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ok, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Once the chatters quiesce the fallback arm delivers peer 1's backlog and
	// clears the flag again, so assert on the transition log: peer 1 must have
	// stalled at some point with at least StallK idle steps.
	found := false
	for _, ev := range sys.StallEvents() {
		if ev.Peer == 1 && ev.Idle >= 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("starved peer 1 never flagged; events=%+v", sys.StallEvents())
	}
}

// nearCollisions are messages one rendering slip apart: sets whose digits
// run together, fields that differ only in which of two slots a value sits
// in, kinds that share a rendering branch, and the unnamed and out-of-table
// kinds.
var nearCollisions = []Message{
	{From: 1, To: 2, Kind: MsgBV, Value: 3},
	{From: 1, To: 2, Kind: MsgBV, Round: 3},
	{From: 2, To: 1, Kind: MsgBV, Value: 3},
	{From: 1, To: 2, Kind: MsgVote, Value: 3},
	{From: 1, To: 2, Kind: MsgCand, Value: 3},
	{From: 1, To: 2, Kind: MsgAux, Set: SetOf(1, 2)},
	{From: 1, To: 2, Kind: MsgAux, Set: SetOf(12)},
	{From: 1, To: 2, Kind: MsgAux, Set: SetBoth},
	{From: 1, To: 2, Kind: MsgAux, Set: SetZero},
	{From: 1, To: 2, Kind: MsgAux, Set: SetOne},
	{From: 1, To: 2, Kind: MsgAux},
	{From: 1, To: 2, Kind: MsgAux, Value: 1},
	{From: 1, To: 2},
	{From: 1, To: 2, Kind: MsgKind(9)},
}

// TestKeyStringInjective spot-checks the message identity over near-colliding
// messages (Seq must not participate; the Set is compared as a mask).
// The name is the old string key's; the property it pins moved to Key.
func TestKeyStringInjective(t *testing.T) {
	keys := map[MsgKey]int{}
	for i, m := range nearCollisions {
		k := m.Key()
		if j, dup := keys[k]; dup {
			t.Errorf("messages %d and %d collide on %+v", i, j, k)
		}
		keys[k] = i
	}
	a := Message{From: 1, To: 2, Kind: MsgBV, Value: 3, Seq: 7}
	b := a
	b.Seq = 8
	if a.Key() != b.Key() {
		t.Error("Seq leaked into Key: retransmitted copies would never dedupe")
	}
	if (Message{Kind: MsgAux, Set: SetOf(1, 0)}).Key() != (Message{Kind: MsgAux, Set: SetOf(0, 1)}).Key() {
		t.Error("[1,0] and [0,1] are one announcement to every receiver and must share a key")
	}
}
