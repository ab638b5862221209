package network

import (
	"math/rand"
	"testing"
)

// pingProc sends one message to its peer on start and counts deliveries.
type pingProc struct {
	id       ProcID
	peer     ProcID
	received []Message
	relay    bool
}

func (p *pingProc) ID() ProcID { return p.id }
func (p *pingProc) Start(send Sender) {
	send(Message{From: p.id, To: p.peer, Round: 0, Kind: MsgBV, Value: int(p.id)})
}
func (p *pingProc) Deliver(m Message, send Sender) {
	p.received = append(p.received, m)
	if p.relay && m.Round < 3 {
		send(Message{From: p.id, To: p.peer, Round: m.Round + 1, Kind: MsgBV, Value: m.Value})
	}
}

func TestSystemBasics(t *testing.T) {
	a := &pingProc{id: 0, peer: 1}
	b := &pingProc{id: 1, peer: 0}
	sys, err := NewSystem([]Process{a, b}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sys.Run(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Errorf("steps = %d, want 2", steps)
	}
	if len(a.received) != 1 || len(b.received) != 1 {
		t.Errorf("deliveries: a=%d b=%d, want 1 each", len(a.received), len(b.received))
	}
}

func TestSystemRelayAndStop(t *testing.T) {
	a := &pingProc{id: 0, peer: 1, relay: true}
	b := &pingProc{id: 1, peer: 0, relay: true}
	sys, err := NewSystem([]Process{a, b}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	sys.RecordTrace = true
	_, err = sys.Run(0, func() bool { return len(a.received) >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if len(a.received) < 2 {
		t.Error("stop predicate never satisfied")
	}
	if len(sys.Trace) != sys.Steps {
		t.Errorf("trace length %d != steps %d", len(sys.Trace), sys.Steps)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, FIFOScheduler{}); err == nil {
		t.Error("empty process list should error")
	}
	a := &pingProc{id: 0, peer: 0}
	if _, err := NewSystem([]Process{a}, nil); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := NewSystem([]Process{a, &pingProc{id: 0}}, FIFOScheduler{}); err == nil {
		t.Error("duplicate ids should error")
	}
}

func TestSendToUnknownProcessDropped(t *testing.T) {
	a := &pingProc{id: 0, peer: 99} // peer does not exist
	sys, err := NewSystem([]Process{a}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if sys.DroppedPast != 1 {
		t.Errorf("dropped = %d, want 1", sys.DroppedPast)
	}
}

// TestSparseProcessIDs: process ids need not be 0..n-1. With ids 3 and 7
// the ping-pong runs to completion on both delivery paths, and sends to 5,
// to -1 and to 0 — not processes here, though 0 would be a queue index —
// are dropped.
func TestSparseProcessIDs(t *testing.T) {
	for _, native := range []*NativeOptions{nil, {}} {
		a := &pingProc{id: 3, peer: 7, relay: true}
		b := &pingProc{id: 7, peer: 3, relay: true}
		sys, err := NewSystemOpts([]Process{a, b}, FIFOScheduler{}, Options{Native: native})
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range []ProcID{5, -1, 0} {
			sys.Inject(Message{From: 3, To: to, Kind: MsgBV})
		}
		if _, err := sys.Run(100, nil); err != nil {
			t.Fatal(err)
		}
		if len(a.received) != 4 || len(b.received) != 4 || sys.DroppedPast != 3 {
			t.Errorf("native=%v: received %d and %d, dropped %d; want 4, 4 and 3",
				native != nil, len(a.received), len(b.received), sys.DroppedPast)
		}
	}
}

func TestRandomSchedulerDeliversEverything(t *testing.T) {
	a := &pingProc{id: 0, peer: 1, relay: true}
	b := &pingProc{id: 1, peer: 0, relay: true}
	sys, err := NewSystem([]Process{a, b}, RandomScheduler{Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(1000, nil); err != nil {
		t.Fatal(err)
	}
	if sys.Inflight() != 0 {
		t.Errorf("inflight = %d after quiescence", sys.Inflight())
	}
	// relay chains: rounds 0..3 per direction
	if len(a.received) != 4 || len(b.received) != 4 {
		t.Errorf("deliveries a=%d b=%d, want 4 each", len(a.received), len(b.received))
	}
}

func TestPriorityScheduler(t *testing.T) {
	// Prefer higher-value messages (key = -value).
	a := &pingProc{id: 0, peer: 1}
	b := &pingProc{id: 1, peer: 0}
	sys, err := NewSystem([]Process{a, b}, PriorityScheduler{
		Key: func(m Message) int { return -m.Value },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sys.Step(); err != nil || !ok {
		t.Fatal(ok, err)
	}
	// The message from process 1 (value 1) must have been delivered first.
	if len(a.received) != 1 || a.received[0].Value != 1 {
		t.Errorf("priority scheduler delivered wrong message first: a=%v b=%v", a.received, b.received)
	}
}

func TestFuncSchedulerAndErrors(t *testing.T) {
	a := &pingProc{id: 0, peer: 1}
	b := &pingProc{id: 1, peer: 0}
	sys, err := NewSystem([]Process{a, b}, FuncScheduler(func(inflight []Message, _ int) int {
		return len(inflight) // out of range: must surface as error
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(); err == nil {
		t.Error("out-of-range scheduler choice should error")
	}
}

func TestMessageString(t *testing.T) {
	bv := Message{From: 1, To: 2, Round: 3, Kind: MsgBV, Value: 1}
	if got := bv.String(); got != "BV(r3,1) 1->2" {
		t.Errorf("String = %q", got)
	}
	aux := Message{From: 0, To: 1, Round: 2, Kind: MsgAux, Set: SetBoth}
	if got := aux.String(); got != "AUX(r2,{0,1}) 0->1" {
		t.Errorf("String = %q", got)
	}
}

// forger tries to impersonate process 0 when sending.
type forger struct {
	id       ProcID
	received []Message
}

func (f *forger) ID() ProcID { return f.id }
func (f *forger) Start(send Sender) {
	send(Message{From: 0, To: 1, Round: 0, Kind: MsgBV, Value: 0}) // forged From
}
func (f *forger) Deliver(m Message, _ Sender) { f.received = append(f.received, m) }

// sink receives and records without sending.
type sink struct {
	id       ProcID
	received []Message
}

func (s *sink) ID() ProcID                  { return s.id }
func (s *sink) Start(Sender)                {}
func (s *sink) Deliver(m Message, _ Sender) { s.received = append(s.received, m) }

// TestSenderAuthentication: channels are authenticated point-to-point links,
// so the network stamps the true sender — a Byzantine process cannot forge
// another process's identity to defeat distinct-sender thresholds.
func TestSenderAuthentication(t *testing.T) {
	receiver := &sink{id: 1}
	sys, err := NewSystem([]Process{&forger{id: 3}, receiver}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if len(receiver.received) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(receiver.received))
	}
	if got := receiver.received[0].From; got != 3 {
		t.Errorf("From = %d, want the true sender 3 (forgery must be corrected)", got)
	}
}

// collectProc records deliveries and nothing else.
type collectProc struct {
	id       ProcID
	received []Message
}

func (p *collectProc) ID() ProcID                  { return p.id }
func (p *collectProc) Start(Sender)                {}
func (p *collectProc) Deliver(m Message, _ Sender) { p.received = append(p.received, m) }

// TestBroadcastIncludesSelf: the paper's broadcast primitive delivers to the
// sender too, and the self-copy goes through the network like any other
// message — it is scheduled, not short-circuited.
func TestBroadcastIncludesSelf(t *testing.T) {
	procs := []Process{&collectProc{id: 0}, &collectProc{id: 1}, &collectProc{id: 2}}
	sys, err := NewSystem(procs, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	var sent int
	send := func(m Message) { sent++; sys.Inject(m) }
	Broadcast(send, []ProcID{0, 1, 2}, Message{From: 0, Kind: MsgBV, Value: 1})
	if sent != 3 {
		t.Fatalf("broadcast enqueued %d copies, want 3 (self included)", sent)
	}
	if sys.Inflight() != 3 {
		t.Fatalf("in-flight = %d before any delivery, want 3: self-delivery must be scheduled, not immediate", sys.Inflight())
	}
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		cp := p.(*collectProc)
		if len(cp.received) != 1 {
			t.Errorf("process %d received %d copies, want 1", cp.id, len(cp.received))
		}
	}
}

// TestBroadcastDuplicateTargets: a duplicated id in the target list means two
// copies — Broadcast does not deduplicate; receivers' idempotence is what
// absorbs the repeat.
func TestBroadcastDuplicateTargets(t *testing.T) {
	a := &collectProc{id: 0}
	b := &collectProc{id: 1}
	sys, err := NewSystem([]Process{a, b}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	Broadcast(sys.Inject, []ProcID{1, 1, 0}, Message{From: 0, Kind: MsgBV, Value: 1})
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 2 {
		t.Errorf("duplicated target received %d copies, want 2", len(b.received))
	}
	if len(a.received) != 1 {
		t.Errorf("singleton target received %d copies, want 1", len(a.received))
	}
}

// TestBroadcastToUnknownTargets: ids outside the system are counted as
// dropped, the rest still deliver.
func TestBroadcastToUnknownTargets(t *testing.T) {
	a := &collectProc{id: 0}
	sys, err := NewSystem([]Process{a}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	Broadcast(sys.Inject, []ProcID{0, 7, 9}, Message{From: 0, Kind: MsgBV, Value: 1})
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.received) != 1 {
		t.Errorf("known target received %d copies, want 1", len(a.received))
	}
	if sys.DroppedPast != 2 {
		t.Errorf("DroppedPast = %d, want 2", sys.DroppedPast)
	}
}

// TestBroadcastPreservesSendOrder: under FIFO the copies arrive in target
// order, so a process broadcasting to [self, peer] sees its own copy first —
// the ordering the bv-broadcast echo rules implicitly rely on.
func TestBroadcastPreservesSendOrder(t *testing.T) {
	a := &collectProc{id: 0}
	b := &collectProc{id: 1}
	sys, err := NewSystem([]Process{a, b}, FIFOScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	Broadcast(sys.Inject, []ProcID{0, 1}, Message{From: 0, Kind: MsgBV, Value: 0})
	Broadcast(sys.Inject, []ProcID{0, 1}, Message{From: 0, Kind: MsgBV, Value: 1})
	trace := []int{}
	sys.RecordTrace = true
	if _, err := sys.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range sys.Trace {
		trace = append(trace, m.Value)
	}
	want := []int{0, 0, 1, 1}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("FIFO delivery order %v, want %v", trace, want)
		}
	}
}
