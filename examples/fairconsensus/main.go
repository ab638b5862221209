// Fairconsensus: DBFT terminating under the fairness assumption, with a
// round-rigidity check on the recorded execution.
//
// The example runs the executable DBFT consensus against a Byzantine liar
// under the fairness-realizing scheduler, reports the good-round witness of
// Definition 3 and the decisions, and then demonstrates the Appendix A
// reduction on the counter-system side: a random asynchronous multi-round
// run of the simplified automaton is reordered into its round-rigid form and
// replayed to the same final configuration.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/counter"
	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/reduction"
	"repro/internal/ta"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fairconsensus:", err)
		os.Exit(1)
	}
}

func run() error {
	// Part 1: a fair execution of the real algorithm.
	cfg := dbft.Config{N: 4, T: 1, MaxRounds: 12}
	all := protocol.AllIDs(cfg.N)
	inputs := []int{0, 1, 1}
	correct, err := dbft.Processes(cfg, inputs, all)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2024))
	procs := []network.Process{
		correct[0], correct[1], correct[2],
		dbft.Lies.Liar(3, all, rng),
	}
	sys, err := network.NewSystem(procs, fairness.Scheduler{
		Byzantine: map[network.ProcID]bool{3: true},
	})
	if err != nil {
		return err
	}
	steps, done, err := fairness.RunToDecision(sys, correct, 500000)
	if err != nil {
		return err
	}
	fmt.Printf("DBFT n=4 t=1, inputs %v, Byzantine liar, fair scheduler: %d deliveries\n", inputs, steps)
	fmt.Print(protocol.Describe(correct))
	if !done {
		return fmt.Errorf("no decision — the fair scheduler should terminate")
	}
	if g := fairness.FirstGoodRound(correct, cfg.MaxRounds); g >= 0 {
		fmt.Printf("fairness witness (Def. 3): round %d was %d-good\n", g, g%2)
	}

	// Part 2: round-rigid reduction on the simplified automaton.
	fmt.Println("\nAppendix A reduction on a random multi-round counter-system run:")
	a := models.SimplifiedConsensus()
	msys, err := reduction.NewSystem(a, counter.ParamsFor(a, 4, 1, 1), 3)
	if err != nil {
		return err
	}
	init, err := msys.InitialConfig(map[ta.LocID]int64{
		a.MustLoc("V0"): 1, a.MustLoc("V1"): 2,
	})
	if err != nil {
		return err
	}
	steps2 := randomRun(msys, init, rng, 150)
	rigid, err := msys.Verify(init, steps2)
	if err != nil {
		return err
	}
	fmt.Printf("random asynchronous run: %d steps; round-rigid reordering replays to the\n", len(steps2))
	fmt.Printf("same final configuration (rigid: %v)\n", reduction.IsRoundRigid(rigid))
	return nil
}

func randomRun(s *reduction.System, init reduction.Config, rng *rand.Rand, maxSteps int) []reduction.Step {
	var steps []reduction.Step
	cur := init.Clone()
	for i := 0; i < maxSteps; i++ {
		type cand struct{ round, rule int }
		var cands []cand
		for r := 0; r < s.MaxRounds; r++ {
			for ri, rule := range s.TA.Rules {
				if rule.SelfLoop() {
					continue
				}
				if en, err := s.Enabled(cur, r, ri); err == nil && en {
					cands = append(cands, cand{r, ri})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		st := reduction.Step{Round: pick.round, Rule: pick.rule, Factor: 1}
		next, err := s.Apply(cur, st)
		if err != nil {
			break
		}
		cur = next
		steps = append(steps, st)
	}
	return steps
}
