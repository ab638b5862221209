package schema

import (
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
	e   *Engine
	an  *analysis
	enc *encoding
	// path is the current context. Only path[:live] is pushed into the
	// encoder and solver; path[live:] is the dead suffix below an Unsat level,
	// kept as guard indices plus deadSlots, the running slot total after each
	// of its levels (what len(enc.slots) would read had the segments been
	// encoded — a pure function of the unlocked sets along the path).
	path      []int
	live      int
	deadSlots []int
	unlocked  guardSet // set view of path
	baseDone  bool     // base-segment warm check performed
	// unsat reports that the rational check of the innermost live level came
	// back Unsat. The level constraints are a subset of every descendant
	// schema's constraint set, so the whole subtree is Unsat: deeper levels
	// are counted, not encoded, and solveAt returns Unsat without a query
	// solve — the dominant saving on trees whose guard prefixes are mostly
	// infeasible (a fresh strategy re-proves that infeasibility from scratch
	// once per schema).
	unsat bool
}

// newFullCursor builds the shared base of every schema: the resilience and
// initial-distribution constraints plus the level-0 segment.
func (e *Engine) newFullCursor(an *analysis, deadline time.Time) (*fullCursor, error) {
	enc, err := e.newEncoding(an)
	if err != nil {
		return nil, err
	}
	enc.deadline = deadline
	cur := &fullCursor{e: e, an: an, enc: enc, unlocked: an.newGuardSet()}
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

// truncate backtracks to the first depth levels of the path: dead levels are
// dropped from the list, live ones popped from the encoder.
func (cur *fullCursor) truncate(depth int) {
	for len(cur.path) > depth {
		last := len(cur.path) - 1
		cur.unlocked.remove(cur.path[last])
		cur.path = cur.path[:last]
		if last < cur.live {
			cur.live = last
			cur.enc.pop()
			cur.unsat = false // the Unsat level is the innermost live one
		}
	}
	cur.deadSlots = cur.deadSlots[:len(cur.path)-cur.live]
}

// slots is the schema length at the current context.
func (cur *fullCursor) slots() int {
	if n := len(cur.deadSlots); n > 0 {
		return cur.deadSlots[n-1]
	}
	return len(cur.enc.slots)
}

// pushLevel opens one guard segment: the guard becomes true at this
// boundary (its increments happened in the preceding segments), then every
// rule enabled under the grown unlocked set fires an accelerated factor.
// Below an Unsat level no solver work can change the verdict, so the
// segment only adds its rule count to the slot total.
func (cur *fullCursor) pushLevel(gi int) error {
	cur.path = append(cur.path, gi)
	cur.unlocked.add(gi)
	if cur.unsat {
		n := cur.slots() + len(cur.e.segment(cur.an, cur.unlocked).rules)
		cur.deadSlots = append(cur.deadSlots, n)
		obsDeadLevels.Inc()
		return nil
	}
	enc := cur.enc
	enc.push()
	cur.live++
	if err := enc.assertGuardNow(cur.an.guards[gi].c); err != nil {
		return err
	}
	if err := enc.addSegment(cur.unlocked); err != nil {
		return err
	}
	obsLevelPushes.Inc()
	// Pin a warm basis at this level. solver.Pop restores the lp snapshot
	// taken at the matching Push, so any warming done inside a query scope
	// never escapes it; without this check every schema in the subtree
	// would re-solve the whole prefix from the base tableau. An Unsat
	// answer condemns the subtree (see unsat).
	st, fracs, err := enc.solver.CheckFractional(maxBoundProbes)
	if err != nil {
		return err
	}
	if st == smt.Unsat {
		cur.unsat = true
		obsUnsatLevels.Inc()
		return nil
	}
	return cur.probeBounds(fracs)
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
func (cur *fullCursor) probeBounds(fracs []smt.Frac) error {
	sv := cur.enc.solver
	for _, f := range fracs {
		if !f.OK {
			continue // cut coefficients would overflow; skip, never guess
		}
		s, floor := f.Sym, f.Floor
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
	st, _, err := sv.CheckFractional(0)
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
		if _, _, err := enc.solver.CheckFractional(0); err != nil {
			return IndexRecord{}, err
		}
		cur.baseDone = true
		if idx == 0 {
			charged.Add(enc.solver.Stats.Diff(before))
		}
	}

	p := commonPrefixLen(cur.path, ctx)
	cur.truncate(p)
	for li := p; li < len(ctx); li++ {
		last := li == len(ctx)-1
		var before smt.Stats
		if last {
			before = enc.solver.Stats
		} else if !cur.unsat {
			obsLevelReplays.Inc()
		}
		if err := cur.pushLevel(ctx[li]); err != nil {
			return IndexRecord{}, err
		}
		if last {
			charged.Add(enc.solver.Stats.Diff(before))
		}
	}
	slots := cur.slots()

	if cur.unsat {
		// The guard prefix is rationally infeasible, so the schema — its
		// constraints are a superset — is Unsat with no further solver work.
		// Deterministic at any worker count: whichever cursor reaches this
		// context pushes the same levels, detects Unsat at the same depth
		// (the check runs at the shallowest Unsat level only), and charges
		// this schema exactly the work of its own final-level push.
		encodeDur := time.Since(encStart)
		acc.encode.Add(encodeDur.Nanoseconds())
		cur.emitSolve(idx, slots, smt.Unsat, encodeDur, 0, charged)
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

	cur.emitSolve(idx, slots, st, encodeDur, solveDur, charged)
	if ce != nil {
		for _, gi := range ctx {
			ce.Schema = append(ce.Schema, cur.an.guards[gi].key)
		}
	}
	return IndexRecord{Done: true, Status: st, Slots: slots, Stats: charged, CE: ce}, nil
}

// emitSolve traces one discharged schema. The nil check keeps the untraced
// path from building the attribute map.
func (cur *fullCursor) emitSolve(idx, slots int, st smt.Status, encode, solve time.Duration, charged smt.Stats) {
	tr := cur.e.opts.Trace
	if tr == nil {
		return
	}
	tr.Emit("schema", "solve", map[string]int64{
		"index":     int64(idx),
		"slots":     int64(slots),
		"status":    int64(st),
		"encode_ns": encode.Nanoseconds(),
		"solve_ns":  solve.Nanoseconds(),
		"bb_nodes":  int64(charged.BBNodes),
	})
}
