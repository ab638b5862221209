package schema

import (
	"time"

	"repro/internal/smt"
	"repro/internal/spec"
)

// checkStaged builds a single dependency-staged schema and discharges it
// with lazy case splitting (the Para2-style optimization).
//
// The schema has P passes, where P = (number of rule-gating guards that can
// unlock after the start) + 1 + ExtraPasses. Every execution of a rising-
// guard DAG automaton has at most that many unlock phases; within a phase
// any interleaving reorders into one topological pass with accelerated
// factors. Guard truth is not fixed by the schema: each firing carries the
// clause "factor = 0 OR guard holds here", so a single schema covers every
// unlock order.
func (e *Engine) checkStaged(q *spec.Query, res *Result, start time.Time) error {
	encStart := time.Now()
	var deadline time.Time
	if e.opts.Timeout > 0 {
		deadline = start.Add(e.opts.Timeout)
	}
	an, err := e.analyze(q, deadline)
	if err != nil {
		return err
	}
	enc, err := e.newEncoding(an)
	if err != nil {
		return err
	}
	enc.deadline = deadline

	// Pass count: one topological pass per *backward* guard unlock plus the
	// base pass (forward unlocks happen within a pass: the incrementing
	// firings precede the gated ones in topological order), capped by the
	// classic guards+1 bound, plus a safety margin cross-validated against
	// the explicit-state checker and the full-enumeration mode.
	passes := an.backwardGuards + 1
	if cap := an.gatingGuards + 1; passes > cap {
		passes = cap
	}
	passes += e.opts.ExtraPasses

	reach := an.reachAt(len(an.reachByLevel)) // fixpoint reachability
	for p := 0; p < passes; p++ {
		for i, ri := range an.rules {
			if an.ruleLevel[i] < 0 {
				continue // guard can never unlock
			}
			if !reach[e.ta.Rules[ri].From] {
				continue
			}
			if err := enc.addSlot(ri, an.ruleGuards[i]); err != nil {
				return err
			}
		}
	}
	if err := enc.assertQueryConditions(); err != nil {
		return err
	}
	res.Phases.Encode = time.Since(encStart)

	solveStart := time.Now()
	st, ce, err := enc.solve()
	res.Phases.Solve = time.Since(solveStart)
	if err != nil {
		return err
	}
	e.opts.Trace.Emit("schema", "staged", map[string]int64{
		"slots":    int64(len(enc.slots)),
		"status":   int64(st),
		"solve_ns": res.Phases.Solve.Nanoseconds(),
	})
	res.Schemas = enc.solver.Stats.CaseSplit
	res.AvgLen = float64(len(enc.slots))
	res.Solver = enc.solver.Stats
	switch st {
	case smt.Sat:
		res.Outcome = spec.Violated
		res.CE = ce
	case smt.Unsat:
		res.Outcome = spec.Holds
	default:
		res.Outcome = spec.Budget
	}
	return nil
}
