// Verifybroadcast: model-check the binary value broadcast from its LTL
// specification text, in both engine modes.
//
// The example parses the ByMC-style property file shipped as
// specs/bvbroadcast.ltl (the Section 3.2 properties, BV-Just0 … BV-Term: the
// query set `holistic verify -model bv` checks), compiles each property
// into a counterexample query against the Fig. 2 automaton, and checks it
// twice:
// with full schema enumeration (the mode whose schema counts Table 2
// reports) and with the staged engine. It also demonstrates counterexample
// generation by dropping the premise of BV-Justification.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ltl"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/specs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verifybroadcast:", err)
		os.Exit(1)
	}
}

func run() error {
	a := models.BVBroadcast()
	fmt.Printf("model: %s\n\n", a)

	src, err := specs.FS.ReadFile("bvbroadcast.ltl")
	if err != nil {
		return err
	}
	pf, err := ltl.ParseFile(string(src))
	if err != nil {
		return err
	}
	queries, err := ltl.CompileFile(pf, a)
	if err != nil {
		return err
	}

	for _, mode := range []schema.Mode{schema.FullEnumeration, schema.Staged} {
		engine, err := schema.New(a, schema.Options{Mode: mode})
		if err != nil {
			return err
		}
		fmt.Printf("--- %v enumeration ---\n", mode)
		total := time.Duration(0)
		for i := range queries {
			res, err := engine.Check(&queries[i])
			if err != nil {
				return err
			}
			total += res.Elapsed
			fmt.Printf("%-12s %-8s %6d schemas  %v\n",
				res.Query, res.Outcome, res.Schemas, res.Elapsed.Round(time.Millisecond))
		}
		fmt.Printf("total: %v\n\n", total.Round(time.Millisecond))
	}

	// Mutation: drop the premise of BV-Justification. Without "no correct
	// process proposed 0", delivering 0 is of course possible, and the
	// checker produces a concrete execution, replayed and certified.
	delivered, err := a.LocSetByName("C0", "CB0", "C01")
	if err != nil {
		return err
	}
	q := spec.Query{
		Name:          "BV-Just0-without-premise",
		Kind:          spec.Safety,
		VisitNonempty: []ta.LocSet{delivered},
	}
	engine, err := schema.New(a, schema.Options{})
	if err != nil {
		return err
	}
	res, err := engine.Check(&q)
	if err != nil {
		return err
	}
	fmt.Printf("--- mutation check: %s ---\n%s\n", q.Name, res.Outcome)
	if res.CE != nil {
		fmt.Print(res.CE.Format())
	}
	return nil
}
