package schema

import (
	"time"

	"repro/internal/spec"
)

// checkFull enumerates schemas as ordered subsets of the rule-gating guard
// alphabet — the original POPL'17 scheme that ByMC runs. Every schema fixes
// the order in which guards unlock; between unlock points all enabled rules
// fire accelerated factors in topological order.
//
// Because the number of ordered subsets grows super-exponentially with the
// alphabet, the enumeration carries the MaxSchemas cutoff: exceeding it
// reports spec.Budget, reproducing the fate of the naive consensus automaton
// in Table 2 (>100,000 schemas, >24h) without burning the time.
//
// The check is the four steps of the FullPlan API (shard.go) run back to
// back — the same calls the cluster spreads over workers:
//
//  1. plan: the structural analysis of the query;
//  2. enumerate: one sequential pass materializes every schema context in
//     preorder (no solving — the cutoff fires here, fast, for exploding
//     automata);
//  3. solve range: the contexts are solved from an ordered work queue by
//     opts.Workers concurrent solvers (see parallel.go), each with its own
//     encoder and SMT state, cancelling early on the first counterexample;
//  4. fold: the per-index records are joined over the deterministic prefix.
//
// The result is deterministic regardless of the worker count: the same
// outcome, the same schema count, and the preorder-least (equivalently,
// lexicographically-least by alphabet position) counterexample context.
func (e *Engine) checkFull(q *spec.Query, res *Result, start time.Time) error {
	var deadline time.Time
	if e.opts.Timeout > 0 {
		deadline = start.Add(e.opts.Timeout)
	}
	plan, err := e.plan(q, deadline)
	if err != nil {
		return err
	}

	enumStart := time.Now()
	ctxs, exceeded, interrupted := plan.Enumerate()
	enumDur := time.Since(enumStart)
	switch {
	case exceeded:
		*res = cutoffResult(q.Name, e.opts.MaxSchemas)
	case interrupted:
		res.Outcome = spec.Budget
		res.Schemas = len(ctxs)
	default:
		recs, ph, cut, err := plan.solveRange(ctxs, 0, e.opts.Workers, deadline, e.opts.Stop)
		if err != nil {
			return err
		}
		foldStart := time.Now()
		if *res, err = foldPrefix(q.Name, recs, cut); err != nil {
			return err
		}
		ph.Fold = time.Since(foldStart)
		obsFoldNS.Observe(ph.Fold.Nanoseconds())
		res.Phases = ph
	}
	res.Phases.Encode += enumDur
	return nil
}
