package faults

import (
	"testing"

	"repro/internal/network"
)

// benchPlan is the fault mix of the repository benchmark's simulator
// workloads (goldenBenchShape): one budget-1 drop rule, delays on, no
// duplication.
func benchPlan() Plan { return goldenBenchShape(400, "full", "", 1, 4096).Plan }

// benchSend is one send as the tap sees it: the message and the content id
// the bus interned it as.
type benchSend struct {
	m  network.Message
	id uint32
}

// benchSends is one round of a 400-replica mesh as the send tap sees it:
// every replica broadcasts a BV and an AUX{0,1}, two contents each.
func benchSends(round int) []benchSend {
	const n = 400
	out := make([]benchSend, 0, 2*n*n)
	for from := 0; from < n; from++ {
		bv := network.Message{From: network.ProcID(from), Kind: network.MsgBV, Round: round, Value: 1}
		aux := network.Message{From: network.ProcID(from), Kind: network.MsgAux, Round: round, Set: network.SetBoth}
		for to := 0; to < n; to++ {
			bv.To, aux.To = network.ProcID(to), network.ProcID(to)
			out = append(out, benchSend{bv, uint32(2 * from)}, benchSend{aux, uint32(2*from + 1)})
		}
	}
	return out
}

var benchOut []network.Stamp

// BenchmarkSendTap: one op is one send through the injector under the
// benchmark's plan, drops and delays included at their 5 % rates.
func BenchmarkSendTap(b *testing.B) {
	sends, plan := benchSends(0), benchPlan()
	inj := NewInjector(plan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(sends) == 0 {
			// A fresh injector per pass: every message is a first copy, as in
			// a run, and the budget tallies do not grow with b.N.
			inj = NewInjector(plan)
		}
		s := &sends[i%len(sends)]
		benchOut = inj.SendTap(&s.m, s.id)
	}
}

// TestSendTapAllocs is the allocation gate on the fault plane's per-send
// path: under the benchmark's plan a send that is neither dropped nor
// delayed — nineteen in twenty — allocates nothing. It used to render the
// message twice with fmt.Sprintf and allocate its result slice. A second
// pass re-sends the copies that drew a drop: their (receiver, content) now
// holds a tally, so the budget check reads it from the tally map, and that
// path allocates nothing either.
func TestSendTapAllocs(t *testing.T) {
	inj := NewInjector(benchPlan())
	sends := benchSends(0)[:4000]
	clean := 0
	var dropped []benchSend
	for _, s := range sends {
		logged := len(inj.Events())
		allocs := testing.AllocsPerRun(1, func() { benchOut = inj.SendTap(&s.m, s.id) })
		if events := inj.Events()[logged:]; len(events) != 0 {
			// Dropped or delayed: the log entry and the tally allocate.
			for _, e := range events {
				if e.Kind == EvDrop {
					dropped = append(dropped, s)
					break
				}
			}
			continue
		}
		clean++
		if allocs != 0 {
			t.Fatalf("SendTap(%v, %d) allocated %v times on the clean path", s.m, s.id, allocs)
		}
	}
	if clean < 3000 {
		t.Fatalf("only %d of 4000 sends took the clean path", clean)
	}

	budgeted := 0
	for _, s := range dropped {
		logged := len(inj.Events())
		allocs := testing.AllocsPerRun(1, func() { benchOut = inj.SendTap(&s.m, s.id) })
		for _, e := range inj.Events()[logged:] {
			if e.Kind == EvDrop {
				t.Fatalf("SendTap(%v, %d) dropped a copy past its budget of 1", s.m, s.id)
			}
		}
		if len(inj.Events()) != logged {
			continue // delayed
		}
		budgeted++
		if allocs != 0 {
			t.Fatalf("SendTap(%v, %d) allocated %v times on the budgeted-drop path", s.m, s.id, allocs)
		}
	}
	if budgeted < 100 {
		t.Fatalf("only %d re-sends took the budgeted-drop path", budgeted)
	}
}

// BenchmarkScenarioRun runs the two simulator workloads of the repository
// benchmark at their full size, one Scenario.Run per op — the handle for
// profiling them (-cpuprofile, -memprofile) without the benchmark binary.
func BenchmarkScenarioRun(b *testing.B) {
	for _, c := range []struct {
		name string
		sc   Scenario
	}{
		{"mesh-400", goldenBenchShape(400, "full", "", 1, 4096)},
		{"gossip-264", goldenBenchShape(264, "gossip", "", 1, 4096)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			delivered := int64(0)
			for i := 0; i < b.N; i++ {
				out := c.sc.Run()
				if out.Err != nil || !out.Decided {
					b.Fatalf("run failed: err %v decided %v", out.Err, out.Decided)
				}
				delivered += out.Bus.Delivered
			}
			b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}
