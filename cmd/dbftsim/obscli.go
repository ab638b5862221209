package main

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// seedProgress is the -progress line of a campaign of total seeds: seeds
// run since the call, the rate, the ETA and the seed in flight.
func seedProgress(total int) func() string {
	run := obs.Default.Counter("faults", "seeds_run")
	cur := obs.Default.Gauge("faults", "current_seed")
	base := run.Load()
	start := time.Now()
	return func() string {
		return obs.RateLine("seeds", run.Load()-base, int64(total), time.Since(start)) +
			fmt.Sprintf(" (seed %d)", cur.Load())
	}
}

// campaignReport builds the -report payload of a campaign: the deterministic
// aggregate (identical at any -j for the same completed seed prefix) plus
// the observational envelope.
func campaignReport(tool, kind string, runs, decided, violations int,
	events map[faults.EventKind]int, workers int, interrupted bool) *obs.Report {
	cm := &obs.CampaignMetrics{Kind: kind, Runs: runs, Decided: decided, Violations: violations}
	if len(events) > 0 {
		cm.Events = make(map[string]int, len(events))
		for k, n := range events {
			cm.Events[string(k)] = n
		}
	}
	rep := &obs.Report{Tool: tool, Deterministic: obs.Deterministic{Campaign: cm}}
	rep.Stamp(workers, interrupted)
	return rep
}
