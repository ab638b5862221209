// Byzantineattack: what happens when Byzantine processes reach a third of
// the system — shown twice, at the model level and at the execution level.
//
// First the parameterized checker relaxes the resilience condition from
// n > 3t to n > 2t and produces a symbolic disagreement counterexample to
// Inv1_0 (the Section 6 experiment), certified by replay on the counter
// system. Then the simulator runs the matching concrete attack: n = 4 with
// two coordinated equivocators against two correct processes drives the
// correct processes to decide opposite values.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dbft"
	"repro/internal/network"
	"repro/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "byzantineattack:", err)
		os.Exit(1)
	}
}

func run() error {
	// Part 1: the model-level counterexample.
	res, err := core.GenerateInv1Counterexample(core.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("model check of Inv1_0 with resilience relaxed to n > 2t: %s (%v)\n",
		res.Outcome, res.Elapsed.Round(time.Millisecond))
	if res.CE != nil {
		fmt.Println("symbolic disagreement execution (replayed and certified):")
		fmt.Print(res.CE.Format())
	}

	// Part 2: the concrete attack on the executable algorithm.
	fmt.Println("\nsimulated attack: n=4, t=1 but f=2 coordinated equivocators")
	cfg := protocol.Config{N: 4, T: 1, MaxRounds: 8}
	all := protocol.AllIDs(cfg.N)
	inputs := []int{0, 1}
	correct, err := dbft.Rules.Processes(cfg, inputs, all)
	if err != nil {
		return err
	}
	zeroSide := func(p network.ProcID) bool { return p == 0 }
	procs := []network.Process{
		correct[0], correct[1],
		dbft.Lies.Equivocator(2, all, zeroSide),
		dbft.Lies.Equivocator(3, all, zeroSide),
	}
	sys, err := network.NewSystem(procs, network.FIFOScheduler{})
	if err != nil {
		return err
	}
	if _, err := sys.Run(100000, func() bool { return protocol.AllDecided(correct) }); err != nil {
		return err
	}
	fmt.Print(protocol.Describe(correct))
	if err := protocol.Agreement("dbft", correct); err != nil {
		fmt.Println("=>", err)
	} else {
		return fmt.Errorf("attack unexpectedly failed to break agreement")
	}
	return nil
}
