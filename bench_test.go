// Benchmarks regenerating the paper's experimental section (Table 2 and the
// Section 6 counterexample), plus ablations for the design choices DESIGN.md
// calls out: staged vs full schema enumeration, parameterized checking vs
// explicit-state enumeration, and the executable-algorithm substrate.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
)

func benchQuery(b *testing.B, a *ta.TA, queries []spec.Query, name string, mode schema.Mode) {
	b.Helper()
	benchQueryWorkers(b, a, queries, name, mode, 1)
}

func benchQueryWorkers(b *testing.B, a *ta.TA, queries []spec.Query, name string, mode schema.Mode, workers int) {
	b.Helper()
	var q *spec.Query
	for i := range queries {
		if queries[i].Name == name {
			q = &queries[i]
		}
	}
	if q == nil {
		b.Fatalf("no query %s", name)
	}
	engine, err := schema.New(a, schema.Options{Mode: mode, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Check(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != spec.Holds {
			b.Fatalf("%s: %v", name, res.Outcome)
		}
	}
}

// BenchmarkTable2BV reproduces the bv-broadcast block of Table 2 (full
// schema enumeration, the mode whose schema counts the paper reports), at
// one worker and at NumCPU workers — the Table 2 wall-clock comparison of
// the parallel enumeration. Results are identical at both counts; only the
// wall clock moves.
func BenchmarkTable2BV(b *testing.B) {
	a := models.BVBroadcast()
	queries, err := models.Named("bv").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"BV-Just0", "BV-Obl0", "BV-Unif0", "BV-Term"} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/j%d", name, workers), func(b *testing.B) {
				benchQueryWorkers(b, a, queries, name, schema.FullEnumeration, workers)
			})
		}
	}
}

// BenchmarkTable2Simplified reproduces the simplified-consensus block of
// Table 2 (staged engine).
func BenchmarkTable2Simplified(b *testing.B) {
	a := models.SimplifiedConsensus()
	queries, err := models.Named("simplified").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"Inv1_0", "Inv2_0", "SRoundTerm", "Good_0", "Dec_0"} {
		b.Run(name, func(b *testing.B) {
			benchQuery(b, a, queries, name, schema.Staged)
		})
	}
}

// BenchmarkTable2NaiveExplosion reproduces the naive-consensus block: the
// benchmark measures how quickly the enumeration structurally exceeds the
// paper's 100,000-schema cutoff (the paper's >24h timeout).
func BenchmarkTable2NaiveExplosion(b *testing.B) {
	a := models.NaiveConsensus()
	queries, err := models.Named("naive").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		engine, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"Inv1_0", "Inv2_0", "SRoundTerm"} {
			var q *spec.Query
			for i := range queries {
				if queries[i].Name == name {
					q = &queries[i]
				}
			}
			b.Run(fmt.Sprintf("%s/j%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := engine.Check(q)
					if err != nil {
						b.Fatal(err)
					}
					if res.Outcome != spec.Budget {
						b.Fatalf("%s: %v, want budget-exceeded", name, res.Outcome)
					}
				}
			})
		}
	}
}

// BenchmarkHolisticPipeline measures the full two-phase verification — the
// paper's "under 70 seconds" headline.
func BenchmarkHolisticPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.HolisticVerification(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Verified() {
			b.Fatal("pipeline did not verify")
		}
	}
}

// BenchmarkCounterexample measures the Section 6 experiment: the
// disagreement counterexample for n <= 3t (the paper reports ~4s).
func BenchmarkCounterexample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.GenerateInv1Counterexample(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != spec.Violated {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

// BenchmarkAblationStagedVsFull compares the two engines on the same
// property (BV-Unif0, the hardest bv-broadcast property): the design
// trade-off between exhaustive schema enumeration and lazy case splitting.
func BenchmarkAblationStagedVsFull(b *testing.B) {
	a := models.BVBroadcast()
	queries, err := models.Named("bv").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("staged", func(b *testing.B) {
		benchQuery(b, a, queries, "BV-Unif0", schema.Staged)
	})
	b.Run("full", func(b *testing.B) {
		benchQuery(b, a, queries, "BV-Unif0", schema.FullEnumeration)
	})
}

// BenchmarkAblationExplicitState shows the state explosion that motivates
// parameterized checking: explicit enumeration of the bv-broadcast state
// space for growing n (the staged engine covers ALL n in a few ms).
func BenchmarkAblationExplicitState(b *testing.B) {
	a := models.BVBroadcast()
	queries, err := models.Named("bv").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	var q *spec.Query
	for i := range queries {
		if queries[i].Name == "BV-Unif0" {
			q = &queries[i]
		}
	}
	cases := []struct{ n, t, f int64 }{
		{4, 1, 1}, {5, 1, 1}, {7, 2, 2},
	}
	for _, c := range cases {
		b.Run(benchName(c.n, c.t, c.f), func(b *testing.B) {
			sys, err := counter.NewSystem(a, counter.ParamsFor(a, c.n, c.t, c.f), 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := counter.CheckQueryExplicit(sys, q, 0)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != spec.Holds {
					b.Fatalf("outcome %v", res.Outcome)
				}
			}
		})
	}
}

func benchName(n, t, f int64) string {
	return "n" + itoa(n) + "_t" + itoa(t) + "_f" + itoa(f)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkSimulationFairRun measures the executable-algorithm substrate:
// one full DBFT consensus under the fairness scheduler with a Byzantine
// liar.
func BenchmarkSimulationFairRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := dbft.Config{N: 4, T: 1, MaxRounds: 12}
		all := protocol.AllIDs(cfg.N)
		correct, err := dbft.Processes(cfg, []int{0, 1, 1}, all)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		procs := []network.Process{
			correct[0], correct[1], correct[2],
			dbft.Lies.Liar(3, all, rng),
		}
		sys, err := network.NewSystem(procs, fairness.Scheduler{
			Byzantine: map[network.ProcID]bool{3: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		_, done, err := fairness.RunToDecision(sys, correct, 500000)
		if err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("no decision")
		}
	}
}

// BenchmarkLemma7 measures the Appendix B adversarial replay.
func BenchmarkLemma7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dbft.RunLemma7(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundRigidReduction measures the Appendix A reordering plus
// double replay on a 150-step random multi-round run.
func BenchmarkRoundRigidReduction(b *testing.B) {
	a := models.SimplifiedConsensus()
	sys, err := counter.NewSystem(a, counter.ParamsFor(a, 4, 1, 1), 3)
	if err != nil {
		b.Fatal(err)
	}
	init, err := sys.InitialConfig(map[ta.LocID]int64{a.MustLoc("V0"): 1, a.MustLoc("V1"): 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var steps []counter.Step
	cur := init.Clone()
	for len(steps) < 150 {
		type cand struct{ round, rule int }
		var cands []cand
		for r := 0; r < sys.Rounds; r++ {
			for ri, rule := range a.Rules {
				if rule.SelfLoop() {
					continue
				}
				if en, _ := sys.Enabled(cur, r, ri); en {
					cands = append(cands, cand{r, ri})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		st := counter.Step{Round: pick.round, Rule: pick.rule, Factor: 1}
		next, err := sys.Apply(cur, st)
		if err != nil {
			b.Fatal(err)
		}
		cur = next
		steps = append(steps, st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Verify(counter.Run{Init: init, Steps: steps}); err != nil {
			b.Fatal(err)
		}
	}
}
