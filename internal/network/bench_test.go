package network

import "testing"

// Micro-benchmarks for the simulator's per-message path (`make bench-sim`):
// the message identity, the per-receiver replay filter, and one enqueue +
// drain through the native bus. The before/after table is in EXPERIMENTS.md.

// nullProc is a process with no protocol behind it.
type nullProc struct{ id ProcID }

func (p *nullProc) ID() ProcID              { return p.id }
func (p *nullProc) Start(Sender)            {}
func (p *nullProc) Deliver(Message, Sender) {}

// nullMesh builds a native full-mesh system of n null processes with the
// benchmark workloads' queue and batch settings.
func nullMesh(tb testing.TB, n int, dupemap bool) (*System, []ProcID) {
	all := make([]ProcID, n)
	procs := make([]Process, n)
	for i := range all {
		all[i] = ProcID(i)
		procs[i] = &nullProc{id: all[i]}
	}
	sys, err := NewSystemOpts(procs, nil, Options{
		Bus:    BusOptions{QueueCap: 4096, Dupemap: dupemap},
		Native: &NativeOptions{Batch: 8, Partitions: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys, all
}

// drainAll steps windows until nothing is in flight.
func drainAll(tb testing.TB, sys *System) {
	for sys.Inflight() > 0 {
		if _, err := sys.Step(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkBusEnqueueDrain: one op is one round on a 64-peer full mesh —
// every peer broadcasts a fresh BV (4,096 enqueues) and the windows drain
// them all. ns/msg is the per-message figure.
func BenchmarkBusEnqueueDrain(b *testing.B) {
	const n = 64
	for _, mode := range []struct {
		name    string
		dupemap bool
	}{{"dupemap", true}, {"plain", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, all := nullMesh(b, n, mode.dupemap)
			round := func(r int) {
				for _, from := range all {
					for _, to := range all {
						sys.Inject(Message{From: from, To: to, Kind: MsgBV, Round: r, Value: 1})
					}
				}
				drainAll(b, sys)
			}
			round(-1) // queues and drain buffers reach their working size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/msg")
			if got := sys.BusStats().Delivered; got != int64((b.N+1)*n*n) {
				b.Fatalf("delivered %d of %d", got, (b.N+1)*n*n)
			}
		})
	}
}

// BenchmarkDupemapAdd: one op records one never-seen content in a receiver's
// seen-set that is already at the default cap, so every add also evicts.
func BenchmarkDupemapAdd(b *testing.B) {
	d := newDupemap(0)
	id := uint32(0)
	for ; int(id) < d.cap; id++ {
		d.add(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id++
		if !d.add(id) {
			b.Fatal("fresh id reported seen")
		}
	}
}

var benchKey MsgKey

// BenchmarkMsgKey: one op builds the identity of one message, the two shapes
// binary consensus sends.
func BenchmarkMsgKey(b *testing.B) {
	for _, c := range []struct {
		name string
		m    Message
	}{
		{"bv", Message{From: 17, To: 311, Kind: MsgBV, Round: 3, Value: 1}},
		{"aux01", Message{From: 17, To: 311, Kind: MsgAux, Round: 3, Set: SetBoth}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchKey = c.m.Key()
			}
		})
	}
}

// TestEnqueueDrainAllocs is the allocation gate on the bus's per-message
// path: once a content is interned (the broadcast's first copy did that) and
// the queues, drain buffers and seen-sets have their working size, sending
// one more copy of it to a receiver that has not seen it and draining the
// window allocates nothing — no key is rendered, no closure or error slice
// is built per window, and an AUX copy shares the Set the table copied once
// at intern time.
func TestEnqueueDrainAllocs(t *testing.T) {
	const n = 300
	sys, all := nullMesh(t, n, true)
	bv := Message{From: 1, Kind: MsgBV, Round: 7, Value: 1}
	aux := Message{From: 1, Kind: MsgAux, Round: 7, Set: SetBoth}
	// Warm-up: five other contents to everyone, then the measured two to
	// receiver 0 only, which interns them.
	for r := 0; r < 5; r++ {
		for _, to := range all {
			sys.Inject(Message{From: 1, To: to, Kind: MsgBV, Round: r})
		}
	}
	sys.Inject(bv)
	sys.Inject(aux)
	drainAll(t, sys)
	for _, c := range []struct {
		name string
		m    Message
	}{{"bv", bv}, {"aux", aux}} {
		to := ProcID(0)
		delivered := sys.BusStats().Delivered
		got := testing.AllocsPerRun(n-2, func() {
			to++
			c.m.To = to
			sys.Inject(c.m)
			if _, err := sys.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: enqueue + drain allocated %v times per message, want 0", c.name, got)
		}
		if d := sys.BusStats().Delivered - delivered; d != n-1 {
			t.Errorf("%s: %d of %d copies delivered — the measured path was not the delivering one", c.name, d, n-1)
		}
	}
}
