package faults

import (
	"testing"

	"repro/internal/network"
)

// The bus stores each sent content once, and every queued copy of a message
// and every trace entry is rebuilt from it. While a Set was a slice the
// copies shared it, and a handler that wrote through a delivered Set would
// have rewritten the message for every receiver still to get it. A Set is a
// mask now and a Message holds no pointer (TestMessageSize), so no handler
// can; the guard below stays as the end-to-end witness over every delivery
// of the dbft and sba chaos seeds, on the Scheduler path and in native
// drain mode at one and two partitions.

// setGuard wraps one process and keeps every Set delivered to it next to a
// copy taken before the handler ran.
type setGuard struct {
	network.Process
	seen []guardedSet
}

type guardedSet struct {
	m    network.Message
	want network.ValueSet
}

func (g *setGuard) Deliver(m network.Message, send network.Sender) {
	want := m.Set
	g.Process.Deliver(m, send)
	g.seen = append(g.seen, guardedSet{m: m, want: want})
}

func (g *setGuard) OnTick(step int, send network.Sender) {
	if t, ok := g.Process.(network.Ticker); ok {
		t.OnTick(step, send)
	}
}

// TestDeliveredSetsReadOnly fails if any Deliver changes m.Set, during the
// call or at any later point of the run.
func TestDeliveredSetsReadOnly(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	modes := []struct {
		name  string
		sched string
		parts int
	}{{"scheduler", "random", 0}, {"native-p1", "native", 1}, {"native-p2", "native", 2}}
	for _, proto := range []string{"dbft", "sba"} {
		sets := 0
		for _, mode := range modes {
			c := Campaign{Protocol: proto, N: 4, T: 1, MaxSteps: 30_000}
			for i := 0; i < seeds; i++ {
				sc := c.RandomScenario(int64(9000 + i))
				if mode.sched == "native" {
					sc.Sched = "native"
					sc.Sim = &SimOptions{Dupemap: true, Batch: 4, Partitions: mode.parts}
				}
				var guards []*setGuard
				sc.wrap = func(procs []network.Process) []network.Process {
					out := make([]network.Process, len(procs))
					for j, p := range procs {
						g := &setGuard{Process: p}
						guards = append(guards, g)
						out[j] = g
					}
					return out
				}
				if err := sc.Validate(); err != nil {
					t.Fatalf("%s %s seed %d: %v", proto, mode.name, i, err)
				}
				if out := sc.Run(); out.Err != nil {
					t.Fatalf("%s %s seed %d: %v", proto, mode.name, i, out.Err)
				}
				for _, g := range guards {
					for _, d := range g.seen {
						if d.m.Set != d.want {
							t.Fatalf("%s %s seed %d: %s r%d %d->%d was delivered with Set %v, which now reads %v\nreplay: %s",
								proto, mode.name, i, d.m.Kind, d.m.Round, d.m.From, d.m.To, d.want.Values(), d.m.Set.Values(), sc.Encode())
						}
						if d.m.Set != 0 {
							sets++
						}
					}
				}
			}
		}
		if proto == "dbft" && sets == 0 {
			t.Errorf("%s: no delivery carried a Set — the guard watched nothing", proto)
		}
	}
}
