package faults

import (
	"testing"

	"repro/internal/network"
)

// benchPlan is the fault mix of the repository benchmark's simulator
// workloads (goldenBenchShape): one budget-1 drop rule, delays on, no
// duplication.
func benchPlan() Plan { return goldenBenchShape(400, "full", "", 1, 4096).Plan }

// benchSends is one round of a 400-replica mesh as the send tap sees it:
// every replica broadcasts a BV and an AUX{0,1}.
func benchSends(round int) []network.Message {
	const n = 400
	out := make([]network.Message, 0, 2*n*n)
	for from := 0; from < n; from++ {
		bv := network.Message{From: network.ProcID(from), Kind: network.MsgBV, Round: round, Value: 1}
		aux := network.Message{From: network.ProcID(from), Kind: network.MsgAux, Round: round, Set: []int{0, 1}}
		for to := 0; to < n; to++ {
			bv.To, aux.To = network.ProcID(to), network.ProcID(to)
			out = append(out, bv, aux)
		}
	}
	return out
}

var benchOut []network.Message

// BenchmarkSendTap: one op is one send through the injector under the
// benchmark's plan, drops and delays included at their 5 % rates.
func BenchmarkSendTap(b *testing.B) {
	sends, plan := benchSends(0), benchPlan()
	inj := NewInjector(plan, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(sends) == 0 {
			// A fresh injector per pass: every message is a first copy, as in
			// a run, and the budget tallies do not grow with b.N.
			inj = NewInjector(plan, nil)
		}
		benchOut = inj.SendTap(sends[i%len(sends)])
	}
}

// TestSendTapAllocs is the allocation gate on the fault plane's per-send
// path: under the benchmark's plan a send that is neither dropped nor
// delayed — nineteen in twenty — allocates nothing. It used to render the
// message twice with fmt.Sprintf and allocate its result slice.
func TestSendTapAllocs(t *testing.T) {
	inj := NewInjector(benchPlan(), nil)
	clean := 0
	for _, m := range benchSends(0)[:4000] {
		logged := len(inj.Log)
		allocs := testing.AllocsPerRun(1, func() { benchOut = inj.SendTap(m) })
		if len(inj.Log) != logged {
			continue // dropped or delayed: the log entry and the tally allocate
		}
		clean++
		if allocs != 0 {
			t.Fatalf("SendTap(%v) allocated %v times on the clean path", m, allocs)
		}
	}
	if clean < 3000 {
		t.Fatalf("only %d of 4000 sends took the clean path", clean)
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
