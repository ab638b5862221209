package schema

import (
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
)

// TestStatsMergeParallel is the focused audit of the Result stats merge
// under parallel enumeration: every verdict-relevant field — Outcome,
// Schemas, AvgLen, and each smt.Stats component — must be identical between
// a sequential and an 8-worker run. Observational fields (Elapsed, Phases)
// are deliberately excluded: they are wall-clock and scheduling dependent.
// The internal-consistency assertions pin the two easy merge mistakes:
// rebuild double-counting (each schema solves on a fresh encoding, so the
// aggregate must show at least one rebuild per schema but not wildly more
// LP checks than rebuilds would imply) and AvgLen computed from a racing
// counter rather than the post-fold schema count.
func TestStatsMergeParallel(t *testing.T) {
	a := models.BVBroadcast()
	qs, err := models.Named("bv").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		seq := fullCheckAt(t, a, q, 1, 0)
		par := fullCheckAt(t, a, q, 8, 0)

		if par.Outcome != seq.Outcome {
			t.Errorf("%s: outcome %v vs %v", q.Name, par.Outcome, seq.Outcome)
			continue
		}
		if par.Schemas != seq.Schemas {
			t.Errorf("%s: schemas %d vs %d", q.Name, par.Schemas, seq.Schemas)
		}
		if par.AvgLen != seq.AvgLen {
			t.Errorf("%s: avg len %v vs %v", q.Name, par.AvgLen, seq.AvgLen)
		}
		// Compare every solver counter by name so a future Stats field is
		// caught by the exhaustive struct equality below going stale.
		if par.Solver.LPChecks != seq.Solver.LPChecks ||
			par.Solver.Pivots != seq.Solver.Pivots ||
			par.Solver.Rebuilds != seq.Solver.Rebuilds ||
			par.Solver.BBNodes != seq.Solver.BBNodes ||
			par.Solver.CaseSplit != seq.Solver.CaseSplit {
			t.Errorf("%s: solver stats %+v vs %+v", q.Name, par.Solver, seq.Solver)
		}
		if par.Solver != seq.Solver {
			t.Errorf("%s: solver stats structs differ: %+v vs %+v", q.Name, par.Solver, seq.Solver)
		}

		// Internal consistency of the folded aggregate (both runs).
		for _, r := range []Result{seq, par} {
			if r.Outcome == spec.Budget {
				continue
			}
			if r.Schemas > 0 && r.AvgLen <= 0 {
				t.Errorf("%s: %d schemas but avg len %v", q.Name, r.Schemas, r.AvgLen)
			}
			// The incremental walker's canonical attribution charges the base
			// tableau build (the only unconditional from-scratch rebuild) to
			// preorder index 0. Schemas under a rationally-infeasible guard
			// level resolve with zero charged LP checks, so the only solid
			// floors are: at least one rebuild and one LP check in total (the
			// base build), and never more rebuilds than checks. Double-folding
			// a record would break the parallel==sequential equality above;
			// folding zero records breaks these floors.
			if r.Schemas > 0 && (r.Solver.Rebuilds < 1 || r.Solver.LPChecks < 1) {
				t.Errorf("%s: %d rebuilds / %d LP checks for %d schemas, want >= 1 each (base build)",
					q.Name, r.Solver.Rebuilds, r.Solver.LPChecks, r.Schemas)
			}
			if r.Solver.LPChecks < r.Solver.Rebuilds {
				t.Errorf("%s: %d LP checks < %d rebuilds", q.Name, r.Solver.LPChecks, r.Solver.Rebuilds)
			}
		}
	}
}
