package counter

// The Appendix A side of the reduction: the communication-closure check that
// licenses it and the round-rigid reordering itself — every asynchronous
// multi-round run can be reordered, by swapping independent adjacent steps,
// into a run in which all round-r steps precede all round-(r+1) steps while
// preserving every per-round observation (and hence all LTL-X properties,
// [Bertrand et al., CONCUR'19, Theorem 6]).

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ta"
)

// CheckCommClosed verifies the structural conditions of Section 2 /
// Appendix A: guards mention only shared variables (whose instances are
// per-round) and parameters, and round-switch rules are unguarded and
// update-free — a step in round r can then never depend on or influence a
// different round's state, which is exactly what makes adjacent steps of
// different rounds swappable.
func CheckCommClosed(a *ta.TA) error {
	hasSwitch := false
	for _, r := range a.Rules {
		if r.RoundSwitch {
			hasSwitch = true
			if len(r.Guard) != 0 {
				return fmt.Errorf("counter: round-switch rule %s is guarded", r.Name)
			}
			if len(r.Update) != 0 {
				return fmt.Errorf("counter: round-switch rule %s has updates", r.Name)
			}
		}
	}
	if !hasSwitch {
		return fmt.Errorf("counter: %s has no round-switch rules; use a one-round system", a.Name)
	}
	return nil // guard shape over shared+params is enforced by ta.Validate
}

// EnlargedInitials checks the structural side of the Appendix A reduction:
// every location a round-switch rule targets is an initial location of the
// one-round projection, so checking the one-round automaton with enlarged
// initial configurations covers every round's entry states.
func EnlargedInitials(a *ta.TA) error {
	oneRound := a.OneRound()
	for _, r := range a.Rules {
		if !r.RoundSwitch {
			continue
		}
		if !oneRound.Locations[r.To].Initial {
			return fmt.Errorf("counter: round-switch target %s is not initial in the one-round projection",
				a.Locations[r.To].Name)
		}
	}
	return nil
}

// RoundRigid reorders a run into its round-rigid form: steps sorted stably
// by round, so that all round-r steps (including the switches out of r)
// precede every round-(r+1) step, with the original relative order preserved
// within each round. By the reduction theorem this is again a valid run with
// the same final configuration; Verify replays it to certify that.
func RoundRigid(steps []Step) []Step {
	out := append([]Step(nil), steps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// IsRoundRigid reports whether the run's rounds are nondecreasing.
func IsRoundRigid(steps []Step) bool {
	for i := 1; i < len(steps); i++ {
		if steps[i].Round < steps[i-1].Round {
			return false
		}
	}
	return true
}

// Verify replays both the run and its round-rigid reordering and checks
// they reach the same final configuration. It returns the reordered steps.
func (s *System) Verify(run Run) ([]Step, error) {
	orig, err := s.Replay(run)
	if err != nil {
		return nil, fmt.Errorf("counter: original run invalid: %w", err)
	}
	rigid := RoundRigid(run.Steps)
	re, err := s.Replay(Run{Init: run.Init, Steps: rigid})
	if err != nil {
		return nil, fmt.Errorf("counter: round-rigid reordering broke the run (communication-closure violated?): %w", err)
	}
	of, rf := orig[len(orig)-1], re[len(re)-1]
	if !slices.Equal(of.K, rf.K) || !slices.Equal(of.V, rf.V) {
		return nil, fmt.Errorf("counter: reordered run reaches a different final configuration")
	}
	return rigid, nil
}
