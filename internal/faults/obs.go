package faults

import "repro/internal/obs"

// Observational-only instrumentation (see internal/obs). Campaign verdicts
// and aggregates come from Campaign.fold over the seed-ordered prefix that
// sweep.Run returns, never from these racing counters.
var (
	// obsSeedsRun counts scenario executions across all campaigns;
	// obsSeedsFailed counts the folded seeds with at least one violation.
	obsSeedsRun    = obs.Default.Counter("faults", "seeds_run")
	obsSeedsFailed = obs.Default.Counter("faults", "seeds_failed")
	// obsCurrentSeed holds the most recently started seed — what a progress
	// line or a post-mortem snapshot reports as "where the campaign was".
	obsCurrentSeed = obs.Default.Gauge("faults", "current_seed")
)

// traceSeed emits one per-seed trace event (nil tracer = no-op); failed is
// whether the per-seed check found any violation.
func traceSeed(tr *obs.Tracer, kind string, seed int64, out *Outcome, failed bool) {
	if tr == nil {
		return
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	tr.Emit(kind, "seed", map[string]int64{
		"seed":    seed,
		"steps":   int64(out.Steps),
		"decided": flag(out.Decided),
		"failed":  flag(failed),
	})
}
