package schema

import (
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
)

// benchPrefixSolve measures full-mode solve throughput on the workload the
// incremental walker exists for: a deep preorder prefix of the simplified
// consensus automaton's Inv1 tree (the tree structurally exceeds MaxSchemas,
// so whole-tree checks never reach the solve phase — prefix solving, as the
// cluster bench drives it, is where per-schema cost is paid). workers=1 is
// the canonical walk: every index is one Push away from its predecessor, so
// this is the purest measure of prefix sharing vs from-scratch encoding.
func benchPrefixSolve(b *testing.B, fresh bool) {
	b.Helper()
	a := models.SimplifiedConsensus()
	qs, err := models.Named("simplified").Queries(a)
	if err != nil {
		b.Fatal(err)
	}
	var q *spec.Query
	for i := range qs {
		if qs[i].Name == "Inv1_0" {
			q = &qs[i]
		}
	}
	if q == nil {
		b.Fatal("no Inv1_0 query")
	}
	e, err := New(a, Options{Mode: FullEnumeration})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := e.PlanFull(q)
	if err != nil {
		b.Fatal(err)
	}
	const prefix = 150
	ctxs, _ := plan.EnumeratePrefix(prefix, nil)
	if len(ctxs) != prefix {
		b.Fatalf("prefix has %d contexts, want %d", len(ctxs), prefix)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var recs []IndexRecord
		if fresh {
			recs = freshSolveRange(b, plan, ctxs)
		} else {
			var interrupted bool
			recs, interrupted, err = plan.SolveRange(ctxs, 0, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if interrupted {
				b.Fatal("interrupted")
			}
		}
		for j := range recs {
			if !recs[j].Done {
				b.Fatalf("record %d not done", j)
			}
		}
	}
	b.ReportMetric(float64(len(ctxs))*float64(b.N)/b.Elapsed().Seconds(), "schemas/s")
}

// BenchmarkPrefixSolveIncrementalVsFresh is the incremental-vs-fresh
// ablation: identical verdicts (asserted by TestIncrementalVsFreshSchema*),
// different strategies. The incremental walker's bar is >= 3x fresh
// throughput on this workload.
func BenchmarkPrefixSolveIncrementalVsFresh(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchPrefixSolve(b, false) })
	b.Run("fresh", func(b *testing.B) { benchPrefixSolve(b, true) })
}

// BenchmarkSolveRangePrune measures the prune-bound regime the cluster_prune
// benchmark workload drives: the first 10,000 contexts of the naive
// automaton's Inv2_0 preorder at one worker, where almost every context lies
// below a rationally-Unsat level and is settled from the structural table.
func BenchmarkSolveRangePrune(b *testing.B) {
	const prefix = 10000
	plan := naivePlan(b, "Inv2_0")
	ctxs, _ := plan.EnumeratePrefix(prefix, nil)
	if len(ctxs) != prefix {
		b.Fatalf("prefix has %d contexts, want %d", len(ctxs), prefix)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, interrupted, err := plan.SolveRange(ctxs, 0, 1, nil)
		if err != nil || interrupted {
			b.Fatalf("interrupted=%v err=%v", interrupted, err)
		}
		if !recs[prefix-1].Done {
			b.Fatal("last record not done")
		}
	}
	b.ReportMetric(float64(prefix)*float64(b.N)/b.Elapsed().Seconds(), "schemas/s")
}

// BenchmarkSolveRangeSolverBound measures the solver-bound regime the
// full_solve benchmark workload drives: naive/Inv1_0 contexts [26800, 27400)
// at one worker, past the prefix that level pruning settles cheaply, where
// simplex pivots and branch-and-bound do the work.
func BenchmarkSolveRangeSolverBound(b *testing.B) {
	const base, window = 26800, 600
	plan := naivePlan(b, "Inv1_0")
	ctxs, _ := plan.EnumeratePrefix(base+window, nil)
	if len(ctxs) != base+window {
		b.Fatalf("prefix has %d contexts, want %d", len(ctxs), base+window)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, interrupted, err := plan.SolveRange(ctxs[base:], base, 1, nil)
		if err != nil || interrupted {
			b.Fatalf("interrupted=%v err=%v", interrupted, err)
		}
		if !recs[window-1].Done {
			b.Fatal("last record not done")
		}
	}
	b.ReportMetric(float64(window)*float64(b.N)/b.Elapsed().Seconds(), "schemas/s")
}
