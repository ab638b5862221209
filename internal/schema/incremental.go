package schema

import (
	"math"
	"math/big"
	"sort"
	"time"

	"repro/internal/expr"
	"repro/internal/smt"
)

// This file implements the incremental full-mode solver: one long-lived
// encoding+solver per worker walks its shard of the guard-context tree in
// preorder, pushing a scope before asserting a guard segment's delta
// constraints and popping when backtracking to a sibling, so schemas reuse
// the simplex state of their shared prefix instead of re-encoding and
// re-phase-one-ing it from scratch (solver.Push snapshots the tableau
// lazily, so an untouched prefix basis is never copied).
//
// Determinism. A schema's record must be byte-identical at any worker count
// and chunking, so everything that feeds a record is made a function of the
// context path alone:
//
//   - symbol ids: pop truncates the encoding's private symbol table, so a
//     cursor descending to context c interns exactly the ids a fresh walk
//     to c would (ids order simplex pivoting via Bland's rule);
//   - tableau state: the basis entering a level is produced by the same
//     deterministic pivot sequence from the same parent basis, whether the
//     parent was just replayed or has been held since the previous index;
//   - charged stats: see solveAt — each schema is charged the solver work
//     its visit adds in the canonical workers=1 walk (the push of its final
//     guard level plus its query solve; the root also absorbs the base
//     check), and chunk-boundary prefix replays are deliberately uncharged.

// fullCursor is one worker's stateful walk of the guard-context tree.
type fullCursor struct {
	e        *Engine
	an       *analysis
	enc      *encoding
	path     []int        // guard indices currently pushed, in order
	unlocked map[int]bool // set view of path
	baseDone bool         // base-segment warm check performed
	// unsatDepth is len(path) at the level whose rational check came back
	// Unsat, or -1. The level constraints are a subset of every descendant
	// schema's constraint set, so the whole subtree is Unsat: deeper levels
	// skip their checks and solveAt returns Unsat without a query solve —
	// the dominant saving on trees whose guard prefixes are mostly
	// infeasible (a fresh strategy re-proves that infeasibility from
	// scratch once per schema).
	unsatDepth int
}

// newFullCursor builds the shared base of every schema: the resilience and
// initial-distribution constraints plus the level-0 segment.
func (e *Engine) newFullCursor(an *analysis, deadline time.Time) (*fullCursor, error) {
	enc, err := e.newEncoding(an)
	if err != nil {
		return nil, err
	}
	enc.deadline = deadline
	cur := &fullCursor{e: e, an: an, enc: enc, unlocked: make(map[int]bool), unsatDepth: -1}
	if err := enc.addSegment(cur.unlocked); err != nil {
		return nil, err
	}
	return cur, nil
}

func commonPrefixLen(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func (cur *fullCursor) popLevel() {
	gi := cur.path[len(cur.path)-1]
	cur.path = cur.path[:len(cur.path)-1]
	delete(cur.unlocked, gi)
	cur.enc.pop()
	if cur.unsatDepth > len(cur.path) {
		cur.unsatDepth = -1 // the Unsat-detecting level was popped
	}
}

// pushLevel opens one guard segment: the guard becomes true at this
// boundary (its increments happened in the preceding segments), then every
// rule enabled under the grown unlocked set fires an accelerated factor.
func (cur *fullCursor) pushLevel(gi int) error {
	enc := cur.enc
	enc.push()
	cur.path = append(cur.path, gi)
	cur.unlocked[gi] = true
	if err := enc.assertGuardNow(cur.an.guards[gi].c); err != nil {
		return err
	}
	if err := enc.addSegment(cur.unlocked); err != nil {
		return err
	}
	obsLevelPushes.Inc()
	if cur.unsatDepth >= 0 {
		// An ancestor level is already rationally infeasible; the segment is
		// still encoded (slot counts feed the deterministic records) but no
		// solver work can change the verdict down here.
		return nil
	}
	// Pin a warm basis at this level. solver.Pop restores the lp snapshot
	// taken at the matching Push, so any warming done inside a query scope
	// never escapes it; without this check every schema in the subtree
	// would re-solve the whole prefix from the base tableau. An Unsat
	// answer condemns the subtree (see unsatDepth).
	st, rm, err := enc.solver.CheckRational()
	if err != nil {
		return err
	}
	if st == smt.Unsat {
		cur.unsatDepth = len(cur.path)
		obsUnsatLevels.Inc()
		return nil
	}
	if st == smt.Sat {
		return cur.probeBounds(rm)
	}
	return nil
}

// maxBoundProbes caps the per-level probing: only the first fractional
// variables (in symbol order) of the level's relaxed model are probed.
// Probing is speculative work — two probes capture the variables the
// branch-and-bound searches below would split on first while keeping the
// level push cheap.
const maxBoundProbes = 2

// probeBounds reuses branch-and-bound bounds across the sibling schemas of
// a subtree: for a variable x with fractional relaxed value v, rationally
// refuting x <= floor(v) proves that every integer point of the level
// polytope has x >= floor(v)+1, so that cut is asserted at the level scope
// and the whole subtree inherits the tightened relaxation the first
// branch-and-bound below would otherwise re-derive per schema (dually for
// the upper side). The cut removes only non-integer points, so integer
// verdicts are unchanged. Probe order and count are fixed by symbol order,
// keeping the resulting solver state a function of the context path.
func (cur *fullCursor) probeBounds(rm smt.RatModel) error {
	var fracs []expr.Sym
	for s, v := range rm {
		if !v.IsInt() {
			fracs = append(fracs, s)
		}
	}
	if len(fracs) == 0 {
		return nil
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i] < fracs[j] })
	if len(fracs) > maxBoundProbes {
		fracs = fracs[:maxBoundProbes]
	}
	sv := cur.enc.solver
	for _, s := range fracs {
		// Denominators are positive, so Div (Euclidean) is the floor.
		f := new(big.Int).Div(rm[s].Num(), rm[s].Denom())
		if !f.IsInt64() || f.Int64() == math.MaxInt64 {
			continue // cut coefficients would overflow; skip, never guess
		}
		floor := f.Int64()
		le, err := expr.Le(expr.Var(s), expr.NewLin(floor))
		if err != nil {
			return err
		}
		ge, err := expr.Ge(expr.Var(s), expr.NewLin(floor+1))
		if err != nil {
			return err
		}
		down, err := cur.probe(le)
		if err != nil {
			return err
		}
		if down == smt.Unsat {
			sv.Assert(ge)
			obsBoundCuts.Inc()
			continue
		}
		up, err := cur.probe(ge)
		if err != nil {
			return err
		}
		if up == smt.Unsat {
			sv.Assert(le)
			obsBoundCuts.Inc()
		}
	}
	return nil
}

// probe checks the constraint's rational feasibility in a scratch scope.
func (cur *fullCursor) probe(c expr.Constraint) (smt.Status, error) {
	sv := cur.enc.solver
	sv.Push()
	sv.Assert(c)
	st, _, err := sv.CheckRational()
	sv.Pop()
	return st, err
}

// solveAt seeks the cursor to ctx (preorder index idx) and discharges the
// schema's query conditions inside a scratch scope, leaving the level state
// warm for the next index. The returned record's stats are the deterministic
// per-schema charge: the work this schema's visit adds in the canonical
// workers=1 preorder walk. Concretely, that is the query-scope solve plus
// the push of the schema's final guard level (preorder visits every node by
// pushing exactly its last guard), plus — for index 0 only — the one-time
// base-segment check. Prefix levels re-pushed because this cursor started
// mid-preorder were already charged to ancestor indices by the canonical
// walk, so they are tracked by obsLevelReplays and excluded, which is what
// keeps records byte-identical at any worker count.
func (cur *fullCursor) solveAt(ctx []int, idx int, acc *phaseAcc) (IndexRecord, error) {
	enc := cur.enc
	var charged smt.Stats
	encStart := time.Now()

	if !cur.baseDone {
		before := enc.solver.Stats
		if _, _, err := enc.solver.CheckRational(); err != nil {
			return IndexRecord{}, err
		}
		cur.baseDone = true
		if idx == 0 {
			charged.Add(enc.solver.Stats.Diff(before))
		}
	}

	p := commonPrefixLen(cur.path, ctx)
	for len(cur.path) > p {
		cur.popLevel()
	}
	for li := p; li < len(ctx); li++ {
		last := li == len(ctx)-1
		var before smt.Stats
		if last {
			before = enc.solver.Stats
		} else {
			obsLevelReplays.Inc()
		}
		if err := cur.pushLevel(ctx[li]); err != nil {
			return IndexRecord{}, err
		}
		if last {
			charged.Add(enc.solver.Stats.Diff(before))
		}
	}
	slots := len(enc.slots)

	if cur.unsatDepth >= 0 {
		// The guard prefix is rationally infeasible, so the schema — its
		// constraints are a superset — is Unsat with no further solver work.
		// Deterministic at any worker count: whichever cursor reaches this
		// context pushes the same levels, detects Unsat at the same depth
		// (the check runs at the shallowest Unsat level only), and charges
		// this schema exactly the work of its own final-level push.
		encodeDur := time.Since(encStart)
		acc.encode.Add(encodeDur.Nanoseconds())
		cur.e.opts.Trace.Emit("schema", "solve", map[string]int64{
			"index":     int64(idx),
			"slots":     int64(slots),
			"status":    int64(smt.Unsat),
			"encode_ns": encodeDur.Nanoseconds(),
			"solve_ns":  0,
			"bb_nodes":  int64(charged.BBNodes),
		})
		return IndexRecord{Done: true, Status: smt.Unsat, Slots: slots, Stats: charged}, nil
	}

	enc.push()
	before := enc.solver.Stats
	err := enc.assertQueryConditions()
	encodeDur := time.Since(encStart)
	acc.encode.Add(encodeDur.Nanoseconds())

	var st smt.Status
	var ce *Counterexample
	solveStart := time.Now()
	if err == nil {
		st, ce, err = enc.solve()
	}
	solveDur := time.Since(solveStart)
	acc.solve.Add(solveDur.Nanoseconds())
	enc.pop()
	if err != nil {
		return IndexRecord{}, err
	}
	charged.Add(enc.solver.Stats.Diff(before))

	cur.e.opts.Trace.Emit("schema", "solve", map[string]int64{
		"index":     int64(idx),
		"slots":     int64(slots),
		"status":    int64(st),
		"encode_ns": encodeDur.Nanoseconds(),
		"solve_ns":  solveDur.Nanoseconds(),
		"bb_nodes":  int64(charged.BBNodes),
	})
	if ce != nil {
		for _, gi := range ctx {
			ce.Schema = append(ce.Schema, cur.an.guards[gi].key)
		}
	}
	return IndexRecord{Done: true, Status: st, Slots: slots, Stats: charged, CE: ce}, nil
}
