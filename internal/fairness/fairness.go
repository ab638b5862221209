// Package fairness implements the fairness machinery of Section 3.3: the
// detection of v-good bv-broadcast executions (Definition 2), the fairness
// of infinite execution sequences (Definition 3), and a scheduler that makes
// the assumption hold — under which Algorithm 1 terminates (Theorem 6).
package fairness

import (
	"repro/internal/dbft"
	"repro/internal/network"
	"repro/internal/protocol"
)

// GoodRound reports whether round r of the recorded execution was
// (r mod 2)-good: every correct process bv-delivered the round's parity
// value first (Definitions 2 and 3 — the existence of one such round in an
// infinite run makes the run fair).
func GoodRound(procs []*dbft.Process, r int) bool {
	v, good := dbft.GoodValue(procs, r)
	return good && v == r%2
}

// FirstGoodRound returns the first fair witness round within [0, maxRound],
// or -1 if none exists.
func FirstGoodRound(procs []*dbft.Process, maxRound int) int {
	for r := 0; r <= maxRound; r++ {
		if GoodRound(procs, r) {
			return r
		}
	}
	return -1
}

// Scheduler realizes the fairness assumption: it prioritizes messages from
// correct processes over Byzantine ones, lower rounds over higher ones, and
// within a round's BV messages the parity value first. Under this schedule
// some round is eventually (r mod 2)-good, so DBFT terminates.
type Scheduler struct {
	// Byzantine flags the adversary-controlled sender ids.
	Byzantine map[network.ProcID]bool
}

var _ network.Scheduler = Scheduler{}

// Next implements network.Scheduler.
func (s Scheduler) Next(inflight []network.Message, step int) int {
	best, bestKey := 0, s.key(inflight[0])
	for i := 1; i < len(inflight); i++ {
		if k := s.key(inflight[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

func (s Scheduler) key(m network.Message) int {
	// By round, correct senders before Byzantine ones, parity-value
	// broadcasts first within a round (they make it good).
	k := m.Round * 8
	if s.Byzantine[m.From] {
		k += 4
	}
	switch {
	case m.Kind == network.MsgBV && m.Value == m.Round%2:
		// parity-value broadcasts first
	case m.Kind == network.MsgBV:
		k += 1
	default:
		k += 2
	}
	return k
}

// RunToDecision drives a system of correct and Byzantine processes under the
// given scheduler until every correct process decides (or the step budget is
// exhausted). It returns the steps taken and whether all decided.
func RunToDecision(sys *network.System, correct []*dbft.Process, maxSteps int) (int, bool, error) {
	steps, err := sys.Run(maxSteps, func() bool { return protocol.AllDecided(correct) })
	if err != nil {
		return steps, false, err
	}
	return steps, protocol.AllDecided(correct), nil
}
