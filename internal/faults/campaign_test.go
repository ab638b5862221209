package faults

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

// TestCampaignFailureAccounting: the per-seed trace flag, the seeds_failed
// counter and Violations all come from the one per-seed check. A seed whose
// only violation is termination (or a durability oracle) is traced failed;
// a seed that breaks two guarantees counts once and reports both.
func TestCampaignFailureAccounting(t *testing.T) {
	fair := Scenario{N: 4, T: 1, Inputs: []int{0, 1, 1}, Byz: []string{"silent"}, Plan: Plan{Seed: 1}}
	durable := fair
	durable.Durable = true
	for _, tc := range []struct {
		name     string
		sc       Scenario
		out      Outcome
		failed   int64
		reasons  int
		countsAs int64
	}{
		{"decided-clean", fair, Outcome{Decided: true}, 0, 0, 0},
		{"fair-undecided", fair, Outcome{Steps: 7}, 1, 1, 1},
		{"agreement+validity", fair, Outcome{Decided: true,
			AgreementErr: errors.New("split"), ValidityErr: errors.New("invented")}, 1, 2, 1},
		{"replay-divergence", durable, Outcome{Decided: true, ReplayErrs: []string{"p0: differs"}}, 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(4)
			c := Campaign{N: 4, T: 1, Durable: tc.sc.Durable, Trace: tr}
			r := c.record(5, tc.sc, tc.out)
			evs := tr.Events()
			if len(evs) != 1 {
				t.Fatalf("%d trace events, want 1", len(evs))
			}
			if got := evs[0].Attrs["failed"]; got != tc.failed {
				t.Errorf("traced failed=%d, want %d", got, tc.failed)
			}
			before := obsSeedsFailed.Load()
			res := c.fold([]seedRun{r})
			if got := obsSeedsFailed.Load() - before; got != tc.countsAs {
				t.Errorf("seeds_failed moved by %d, want %d", got, tc.countsAs)
			}
			if len(res.Violations) != tc.reasons {
				t.Errorf("%d violations %v, want %d", len(res.Violations), res.Violations, tc.reasons)
			}
		})
	}
}
