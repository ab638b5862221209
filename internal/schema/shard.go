package schema

import (
	"fmt"
	"time"

	"repro/internal/smt"
	"repro/internal/spec"
)

// This file is the full-enumeration pipeline in its four separable steps —
// plan (analysis), enumerate (preorder context list), solve a range
// (per-index records) and fold (records to Result). A direct Check runs them
// back to back (checkFull); the distributed verification cluster
// (internal/cluster) runs the same four with the middle two spread over
// workers: the coordinator materializes the context list once, hands
// contiguous index ranges out as content-addressed work units, and folds the
// returned records. Both therefore produce the same Result by construction:
// same outcome, schema count, average length, solver statistics, and
// lexicographically-least counterexample (see parallel.go for why per-index
// records make the join worker-count- and placement-independent).

// FullPlan is the analyzed, not-yet-enumerated full-mode check of one query.
type FullPlan struct {
	e  *Engine
	an *analysis
}

// PlanFull validates the query and runs the structural analysis, returning a
// plan whose contexts can be enumerated and solved in independent ranges.
// The engine must be in FullEnumeration mode.
func (e *Engine) PlanFull(q *spec.Query) (*FullPlan, error) {
	if e.opts.Mode != FullEnumeration {
		return nil, fmt.Errorf("schema: PlanFull requires FullEnumeration mode, engine is %v", e.opts.Mode)
	}
	if err := q.Validate(e.ta); err != nil {
		return nil, err
	}
	var deadline time.Time
	if e.opts.Timeout > 0 {
		deadline = time.Now().Add(e.opts.Timeout)
	}
	return e.plan(q, deadline)
}

// plan runs the structural analysis of an already validated query.
func (e *Engine) plan(q *spec.Query, deadline time.Time) (*FullPlan, error) {
	an, err := e.analyze(q, deadline)
	if err != nil {
		return nil, err
	}
	return &FullPlan{e: e, an: an}, nil
}

// MaxSchemas reports the engine's resolved enumeration cutoff, so a caller
// that hits the exceeded case can reproduce the single-box "cutoff+1" Budget
// schema count without re-deriving the default.
func (p *FullPlan) MaxSchemas() int { return p.e.opts.MaxSchemas }

// AlphabetKeys returns the guard alphabet in its fixed enumeration order.
// The keys fingerprint the analysis: two processes whose alphabets match
// index-for-index agree on what every serialized context means, so workers
// verify this before trusting a coordinator's guard-index sequences.
func (p *FullPlan) AlphabetKeys() []string {
	keys := make([]string, len(p.an.alphabet))
	for i, gi := range p.an.alphabet {
		keys[i] = p.an.guards[gi].key
	}
	return keys
}

// Enumerate materializes every schema context in preorder, honoring the
// engine's MaxSchemas cutoff and Stop hook exactly like a direct Check: a
// tree with more than MaxSchemas nodes reports exceeded and keeps nothing.
func (p *FullPlan) Enumerate() (ctxs [][]int, exceeded, interrupted bool) {
	ctxs, more, interrupted := p.walk(p.e.opts.MaxSchemas, p.e.opts.Stop)
	if more {
		return nil, true, false
	}
	return ctxs, false, interrupted
}

// EnumeratePrefix materializes the first limit contexts of the preorder,
// reporting whether the tree was truncated (has more nodes). Unlike
// Enumerate, exceeding the limit keeps the prefix instead of discarding
// everything — the cluster bench uses this to push a budget-exceeding
// automaton's solve phase past its structural cutoff.
func (p *FullPlan) EnumeratePrefix(limit int, stop func() bool) (ctxs [][]int, truncated bool) {
	ctxs, truncated, _ = p.walk(limit, stop)
	return ctxs, truncated
}

// walk is the one structural pass: it materializes the guard-context tree in
// DFS preorder — the order every index downstream refers to — keeping at
// most limit contexts. more reports that the tree has further nodes;
// interrupted that stop fired (polled every 256 visited nodes), leaving a
// partial list. Every emitted context is a fresh slice: branches must never
// share a backing array with their siblings, or contexts that outlive the
// visit (as all of them do) would clobber each other.
func (p *FullPlan) walk(limit int, stop func() bool) (ctxs [][]int, more, interrupted bool) {
	an := p.an
	emit := func(ctx []int) bool {
		if len(ctxs) >= limit {
			more = true
			return false
		}
		obsSchemasEnumerated.Inc()
		ctxs = append(ctxs, ctx)
		return true
	}
	if !emit(nil) {
		return ctxs, more, false
	}
	visited := 0
	unlocked := an.newGuardSet()
	var rec func(ctx []int) bool
	rec = func(ctx []int) bool {
		for _, gi := range p.e.segment(an, unlocked).next {
			visited++
			if visited&255 == 0 && stop != nil && stop() {
				interrupted = true
				return false
			}
			child := make([]int, len(ctx)+1)
			copy(child, ctx)
			child[len(ctx)] = gi
			if !emit(child) {
				return false
			}
			unlocked.add(gi)
			ok := rec(child)
			unlocked.remove(gi)
			if !ok {
				return false
			}
		}
		return true
	}
	rec(nil)
	return ctxs, more, interrupted
}

// ValidContexts reports whether every context is a sequence of in-range
// alphabet indices — the structural sanity check a worker runs on a shard
// before solving (a deeper mismatch is caught by the AlphabetKeys
// fingerprint).
func (p *FullPlan) ValidContexts(ctxs [][]int) error {
	n := len(p.an.alphabet)
	for i, ctx := range ctxs {
		for _, gi := range ctx {
			if gi < 0 || gi >= n {
				return fmt.Errorf("schema: context %d has guard index %d outside alphabet of %d", i, gi, n)
			}
		}
	}
	return nil
}

// IndexRecord is the deterministic per-schema solve record: everything the
// prefix fold needs, independent of which process produced it.
type IndexRecord struct {
	// Done distinguishes a solved index from one skipped by an early exit
	// (an in-range Sat cancels later work) or an interrupt.
	Done   bool
	Status smt.Status
	Slots  int
	Stats  smt.Stats
	// CE is the certified counterexample when Status == smt.Sat.
	CE *Counterexample
}

// SolveRange solves ctxs (preorder indices base..base+len-1) with the given
// worker count, early-exiting after the range's first Sat exactly like the
// single-box solve phase: every index below the winner is solved, indices
// beyond it may be skipped (their records stay !Done). A Stop hook aborts
// with interrupted=true and a partial record set. Per-index records are
// deterministic regardless of workers — each incremental cursor re-derives
// exactly the symbol ids and simplex states a fresh walk to the context
// would, and solver work is charged by the canonical-walk attribution rule
// (see incremental.go) — so two processes solving the same range produce
// equal records.
func (p *FullPlan) SolveRange(ctxs [][]int, base, workers int, stop func() bool) (recs []IndexRecord, interrupted bool, err error) {
	recs, _, interrupted, err = p.solveRange(ctxs, base, workers, time.Time{}, stop)
	return recs, interrupted, err
}

// foldPrefix is the one join of per-index records into a Result. The
// verdict covers the deterministic prefix: every index up to and including
// the first Sat, or all indices when no Sat exists.
//
// With interrupted=false that prefix must be complete or an error is
// returned — a hole means the caller's bookkeeping lost a shard, and folding
// it anyway would fabricate a nondeterministic verdict. With
// interrupted=true (a deadline or Stop cut the solve phase) holes are
// expected: the aggregates then cover whatever finished and the outcome is
// Budget — unless a Sat was already found, whose counterexample is real (it
// is replayed and certified) whether or not the indices below it completed,
// so the violation is surfaced rather than dropped.
func foldPrefix(query string, recs []IndexRecord, interrupted bool) (Result, error) {
	res := Result{Query: query, Mode: FullEnumeration}
	sat, end := -1, len(recs)
	for i := range recs {
		if recs[i].Done && recs[i].Status == smt.Sat {
			sat, end = i, i+1
			break
		}
	}
	hole := -1
	for i := 0; i < end; i++ {
		if !recs[i].Done {
			hole = i
			break
		}
	}
	switch {
	case hole < 0:
	case !interrupted && sat >= 0:
		return Result{}, fmt.Errorf("schema: fold prefix incomplete at index %d (Sat at %d)", hole, sat)
	case !interrupted:
		return Result{}, fmt.Errorf("schema: fold incomplete at index %d with no Sat", hole)
	default:
		end = len(recs)
	}
	totalLen, unknown := 0, false
	for i := 0; i < end; i++ {
		if !recs[i].Done {
			continue
		}
		res.Schemas++
		totalLen += recs[i].Slots
		res.Solver.Add(recs[i].Stats)
		if recs[i].Status == smt.Unknown {
			unknown = true
		}
	}
	if res.Schemas > 0 {
		res.AvgLen = float64(totalLen) / float64(res.Schemas)
	}
	switch {
	case sat >= 0:
		if recs[sat].CE == nil {
			return Result{}, fmt.Errorf("schema: Sat record at index %d carries no counterexample", sat)
		}
		res.Outcome = spec.Violated
		res.CE = recs[sat].CE
	case interrupted || unknown:
		res.Outcome = spec.Budget
	default:
		res.Outcome = spec.Holds
	}
	return res, nil
}

// cutoffResult is the verdict of a tree cut at limit contexts without a
// counterexample: Budget, reporting limit+1 schemas (the node that tripped
// the cutoff) and nothing else.
func cutoffResult(query string, limit int) Result {
	return Result{Query: query, Mode: FullEnumeration, Outcome: spec.Budget, Schemas: limit + 1}
}

// FoldRecords joins complete per-index records into the Result a single-box
// full-enumeration run over the same preorder produces (foldPrefix under
// the strict rule: an incomplete prefix is an error).
func FoldRecords(query string, recs []IndexRecord) (Result, error) {
	return foldPrefix(query, recs, false)
}

// FoldTruncatedRecords joins records of a truncated preorder prefix (see
// EnumeratePrefix). A Sat inside the prefix is a real certified violation
// and folds exactly like FoldRecords; otherwise the verdict is Budget with
// the same "limit+1" schema count a single-box run reports when its
// structural cutoff fires at len(recs) — solving a prefix can refute but
// never prove, so holds/unknown both stay Budget with the volatile fields
// zeroed.
func FoldTruncatedRecords(query string, recs []IndexRecord) (Result, error) {
	res, err := foldPrefix(query, recs, false)
	if err != nil || res.Outcome == spec.Violated {
		return res, err
	}
	return cutoffResult(query, len(recs)), nil
}
