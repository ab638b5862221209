package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// flatSystem is the reference the bus is checked against: a flat in-flight
// slice in send order, delivered from by index, under the fault plane's
// eligibility filter. A copy whose hold has not expired, or whose link is
// cut, is hidden from the scheduler; with nothing eligible the step ticks.
// The taps are consulted at the same points as the System's, and the send
// tap returns the same per-copy stamps (it has no content id to take), so
// one seeded fault plane drives both sides identically. Each flat copy is a
// whole Message that owns its Set.
type flatSystem struct {
	procs   map[ProcID]Process
	order   []ProcID
	sched   Scheduler
	flat    []flatEntry
	started bool
	sender  ProcID

	Trace        []Message
	Steps        int
	DroppedPast  int
	TickInterval int

	SendTap func(m Message) []Stamp
	CutTap  func(from, to ProcID, step int) bool
	StepTap func(step int)
}

type flatEntry struct {
	msg       Message
	notBefore int
}

func newFlatSystem(procs []Process, sched Scheduler) *flatSystem {
	s := &flatSystem{procs: make(map[ProcID]Process, len(procs)), sched: sched}
	for _, p := range procs {
		s.procs[p.ID()] = p
		s.order = append(s.order, p.ID())
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	return s
}

func (s *flatSystem) send(m Message) {
	if _, ok := s.procs[m.To]; !ok {
		s.DroppedPast++
		return
	}
	m.From = s.sender
	stamps := []Stamp{{Seq: m.Seq}}
	if s.SendTap != nil {
		stamps = s.SendTap(m)
	}
	for _, st := range stamps {
		c := m
		c.Seq = st.Seq
		s.flat = append(s.flat, flatEntry{msg: c, notBefore: st.NotBefore})
	}
}

func (s *flatSystem) tick() {
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

// Step mirrors System.Step: it reports false once quiescent.
func (s *flatSystem) Step() (bool, error) {
	if !s.started {
		s.started = true
		for _, id := range s.order {
			s.sender = id
			s.procs[id].Start(s.send)
		}
	}
	if len(s.flat) == 0 {
		if s.TickInterval > 0 {
			s.Steps++
			s.tick()
			return true, nil
		}
		return false, nil
	}
	if s.StepTap != nil {
		s.StepTap(s.Steps)
	}
	var eligible []int
	var view []Message
	for i, e := range s.flat {
		if e.notBefore > s.Steps || (s.CutTap != nil && s.CutTap(e.msg.From, e.msg.To, s.Steps)) {
			continue
		}
		eligible = append(eligible, i)
		view = append(view, e.msg)
	}
	idx := Tick
	if len(view) > 0 {
		j := s.sched.Next(view, s.Steps)
		if j != Tick && (j < 0 || j >= len(view)) {
			return false, fmt.Errorf("reference: scheduler chose out-of-range message %d of %d", j, len(view))
		}
		if j != Tick {
			idx = eligible[j]
		}
	}
	s.Steps++
	if idx == Tick {
		s.tick()
		return true, nil
	}
	m := s.flat[idx].msg
	s.flat = append(s.flat[:idx], s.flat[idx+1:]...)
	s.Trace = append(s.Trace, m)
	s.sender = m.To
	s.procs[m.To].Deliver(m, s.send)
	s.tick()
	return true, nil
}

// randProc sends a seeded random burst on start, on every delivery and on
// some ticks, until its send budget runs out. What it sends depends only on
// its own coin and the order of its events, so two copies of one run stay in
// lockstep exactly as long as their deliveries agree. One destination in
// n+1 is a process that does not exist.
type randProc struct {
	id     ProcID
	n      int
	rng    *rand.Rand
	budget int
}

func (p *randProc) ID() ProcID                     { return p.id }
func (p *randProc) Start(send Sender)              { p.burst(send) }
func (p *randProc) Deliver(_ Message, send Sender) { p.burst(send) }
func (p *randProc) OnTick(_ int, send Sender) {
	if p.rng.Intn(3) == 0 {
		p.burst(send)
	}
}

func (p *randProc) burst(send Sender) {
	for k := p.rng.Intn(3); k > 0 && p.budget > 0; k-- {
		p.budget--
		m := Message{To: ProcID(p.rng.Intn(p.n + 1)), Round: p.rng.Intn(4), Kind: MsgBV, Value: p.rng.Intn(2)}
		if p.rng.Intn(4) == 0 {
			m.Kind, m.Set = MsgAux, []ValueSet{SetZero, SetBoth}[p.rng.Intn(2)]
		}
		send(m)
	}
}

// faultPlane is a seeded stand-in for the fault injector: its send tap drops
// one copy in ten, duplicates about one in seven and delays one copy in five
// by up to 15 steps past the clock StepTap keeps, and CutTap severs the links
// across a random bipartition during two scheduled windows.
type faultPlane struct {
	rng   *rand.Rand
	clock int
	seq   int64
	cuts  [2]struct{ start, heal, sideA int }
	out   []Stamp
}

func newFaultPlane(seed int64, n int) *faultPlane {
	f := &faultPlane{rng: rand.New(rand.NewSource(seed))}
	for i := range f.cuts {
		start := f.rng.Intn(150)
		f.cuts[i].start, f.cuts[i].heal, f.cuts[i].sideA = start, start+10+f.rng.Intn(50), f.rng.Intn(1<<n)
	}
	return f
}

func (f *faultPlane) sendTap(Message) []Stamp {
	r := f.rng.Float64()
	if r < 0.1 {
		return nil
	}
	f.seq++
	f.out = append(f.out[:0], Stamp{Seq: f.seq})
	if r > 0.85 {
		f.seq++
		f.out = append(f.out, Stamp{Seq: f.seq})
	}
	for i := range f.out {
		if f.rng.Intn(5) == 0 {
			f.out[i].NotBefore = f.clock + 1 + f.rng.Intn(15)
		}
	}
	return f.out
}

// busTap is sendTap with the System's signature.
func (f *faultPlane) busTap(m *Message, _ uint32) []Stamp { return f.sendTap(*m) }

func (f *faultPlane) cutTap(from, to ProcID, step int) bool {
	for _, c := range f.cuts {
		if step >= c.start && step < c.heal && (c.sideA>>from)&1 != (c.sideA>>to)&1 {
			return true
		}
	}
	return false
}

func (f *faultPlane) stepTap(step int) { f.clock = step }

// viewRecorder is a random scheduler that returns Tick one time in eight and
// keeps a copy of the last view it was handed.
type viewRecorder struct {
	rng      *rand.Rand
	calls    int
	ticks    int
	lastStep int
	last     []Message
}

func (r *viewRecorder) Next(view []Message, step int) int {
	r.calls++
	r.lastStep = step
	r.last = append(r.last[:0], view...)
	if r.rng.Intn(8) == 0 {
		r.ticks++
		return Tick
	}
	return r.rng.Intn(len(view))
}

// TestBusMatchesFlatReference drives the same seeded processes, fault plane
// and scheduler on the bus and on the flat reference in lockstep. At every
// step the scheduler must be handed the same view of deliverable copies; at
// the end both sides must have delivered the same trace in the same number
// of steps. Odd seeds tick every 5 steps, even seeds run to quiescence.
func TestBusMatchesFlatReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	const maxSteps = 600
	var held, allHeld, schedTicks int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		n := 2 + int(seed%4)
		procs := func() []Process {
			out := make([]Process, n)
			for i := range out {
				out[i] = &randProc{id: ProcID(i), n: n, budget: 40, rng: rand.New(rand.NewSource(seed*100 + int64(i)))}
			}
			return out
		}
		tickEvery := 0
		if seed%2 == 1 {
			tickEvery = 5
		}

		busSched := &viewRecorder{rng: rand.New(rand.NewSource(seed))}
		bus, err := NewSystem(procs(), busSched)
		if err != nil {
			t.Fatal(err)
		}
		bf := newFaultPlane(seed, n)
		bus.SendTap, bus.CutTap, bus.StepTap = bf.busTap, bf.cutTap, bf.stepTap
		bus.TickInterval, bus.RecordTrace = tickEvery, true

		refSched := &viewRecorder{rng: rand.New(rand.NewSource(seed))}
		ref := newFlatSystem(procs(), refSched)
		rf := newFaultPlane(seed, n)
		ref.SendTap, ref.CutTap, ref.StepTap = rf.sendTap, rf.cutTap, rf.stepTap
		ref.TickInterval = tickEvery

		for i := 0; i < maxSteps; i++ {
			callsBefore := busSched.calls
			inflight := bus.Inflight()
			bp, err := bus.Step()
			if err != nil {
				t.Fatalf("seed %d: bus: %v", seed, err)
			}
			rp, err := ref.Step()
			if err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			if bp != rp || bus.Steps != ref.Steps {
				t.Fatalf("seed %d step %d: bus (progressed=%v steps=%d) vs reference (progressed=%v steps=%d)",
					seed, i, bp, bus.Steps, rp, ref.Steps)
			}
			if busSched.calls != refSched.calls || busSched.lastStep != refSched.lastStep ||
				!reflect.DeepEqual(busSched.last, refSched.last) {
				t.Fatalf("seed %d step %d: scheduler views diverge\n bus %d calls, step %d: %v\n ref %d calls, step %d: %v",
					seed, i, busSched.calls, busSched.lastStep, busSched.last, refSched.calls, refSched.lastStep, refSched.last)
			}
			switch {
			case busSched.calls > callsBefore && len(busSched.last) < inflight:
				held++
			case busSched.calls == callsBefore && inflight > 0:
				allHeld++
			}
			if !bp {
				break
			}
		}
		if !reflect.DeepEqual(bus.Trace, ref.Trace) {
			t.Fatalf("seed %d: traces diverge (bus %d deliveries, reference %d)", seed, len(bus.Trace), len(ref.Trace))
		}
		if bus.Inflight() != len(ref.flat) || bus.DroppedPast != ref.DroppedPast {
			t.Fatalf("seed %d: in flight bus=%d reference=%d, dropped bus=%d reference=%d",
				seed, bus.Inflight(), len(ref.flat), bus.DroppedPast, ref.DroppedPast)
		}
		if got := bus.BusStats().Delivered; got != int64(len(bus.Trace)) {
			t.Fatalf("seed %d: Delivered=%d trace=%d", seed, got, len(bus.Trace))
		}
		schedTicks += busSched.ticks
	}
	// The comparison is only as strong as what the runs reached.
	if held == 0 || allHeld == 0 || schedTicks == 0 {
		t.Errorf("fault plane not engaged: %d steps with copies held, %d with all held, %d scheduler ticks",
			held, allHeld, schedTicks)
	}
}
