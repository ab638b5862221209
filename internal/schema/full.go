package schema

import (
	"time"

	"repro/internal/spec"
	"repro/internal/ta"
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

// reachUnder computes the locations reachable from the initial locations via
// rules whose guard conjuncts are all unlocked.
func (e *Engine) reachUnder(an *analysis, unlocked map[int]bool) map[ta.LocID]bool {
	reach := make(map[ta.LocID]bool, len(e.ta.Locations))
	for _, l := range an.initLocs {
		reach[l] = true
	}
	for changed := true; changed; {
		changed = false
		for i, ri := range an.rules {
			r := e.ta.Rules[ri]
			if !reach[r.From] || reach[r.To] {
				continue
			}
			ok := true
			for _, gi := range an.ruleGuards[i] {
				if !unlocked[gi] {
					ok = false
					break
				}
			}
			if ok {
				reach[r.To] = true
				changed = true
			}
		}
	}
	return reach
}

// unlockable reports whether the guard could become true next, given the
// currently unlocked set: it is satisfiable with zero increments, or some
// rule whose guards are unlocked increments one of its variables. Like
// ByMC's enumeration, this prunes only by guard dependency, not by location
// reachability — reachability pruning would shrink the naive automaton's
// schema count below the explosion the paper reports (it is still applied
// to the *encoding* of each schema, where it is a pure optimization).
func (e *Engine) unlockable(an *analysis, unlocked map[int]bool, gi int) bool {
	g := an.guards[gi]
	if g.initiallyTrue {
		return true
	}
	for i, ri := range an.rules {
		r := e.ta.Rules[ri]
		enabled := true
		for _, gj := range an.ruleGuards[i] {
			if !unlocked[gj] {
				enabled = false
				break
			}
		}
		if !enabled {
			continue
		}
		for _, v := range g.vars {
			if d, ok := r.Update[v]; ok && d > 0 {
				return true
			}
		}
	}
	return false
}
