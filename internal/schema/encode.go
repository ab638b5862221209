package schema

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
)

// slot is one accelerated rule firing of a schema.
type slot struct {
	ruleIdx int      // index into e.ta.Rules
	delta   expr.Sym // acceleration factor (>= 0)
}

// encoding translates a schema into a linear-integer-arithmetic problem.
// Location counters and shared variables are kept as symbolic linear
// expressions over the base symbols (parameters, initial counters,
// acceleration factors), so each firing adds only sparse constraints.
type encoding struct {
	e        *Engine
	an       *analysis
	tab      *expr.Table // private snapshot: fresh symbols interned here
	solver   *smt.Solver
	deadline time.Time

	kappa    []expr.Lin // symbolic counter per location
	shared   map[expr.Sym]expr.Lin
	slots    []slot
	initVars map[ta.LocID]expr.Sym

	// lazy-guard bookkeeping: the shared-variable snapshot before each slot,
	// and which slots carry which guard conjuncts.
	snapshots  []map[expr.Sym]expr.Lin
	lazyGuards []pendingGuard

	goalClauses    []smt.Clause
	justiceClauses []smt.Clause

	// marks is the scope stack for push/pop: the incremental full-mode
	// walker opens one scope per guard segment (and one per query solve) so
	// a sibling schema restores the shared prefix instead of re-encoding it.
	marks []encMark
}

// encMark records everything pop must restore alongside the solver scope:
// the private symbol-table length (so re-descending re-interns identical
// ids — ids feed simplex pivot order, see expr.Table.Truncate), the slice
// lengths, and the symbolic counter state. kappa entries and shared values
// are replaced (never mutated in place) by addSlot, so shallow copies pin
// the frame.
type encMark struct {
	syms       int
	slots      int
	lazyGuards int
	goals      int
	justice    int
	kappa      []expr.Lin
	shared     map[expr.Sym]expr.Lin
}

type pendingGuard struct {
	slotIdx int
	key     string
	g       expr.Constraint
}

// push opens a scope: a solver Push plus a mark of all encoder-side state.
// The matching pop restores the encoding to this exact point — including the
// private symbol table, so a later descent re-interns the same names at the
// same ids (simplex pivot order depends on ids, and per-schema determinism
// depends on pivot order).
func (enc *encoding) push() {
	enc.solver.Push()
	enc.marks = append(enc.marks, encMark{
		syms:       enc.tab.Len(),
		slots:      len(enc.slots),
		lazyGuards: len(enc.lazyGuards),
		goals:      len(enc.goalClauses),
		justice:    len(enc.justiceClauses),
		kappa:      append([]expr.Lin(nil), enc.kappa...),
		shared:     enc.snapshotShared(),
	})
}

// pop closes the innermost scope opened by push.
func (enc *encoding) pop() {
	if len(enc.marks) == 0 {
		return
	}
	m := enc.marks[len(enc.marks)-1]
	enc.marks = enc.marks[:len(enc.marks)-1]
	enc.solver.Pop()
	enc.tab.Truncate(m.syms)
	enc.slots = enc.slots[:m.slots]
	enc.snapshots = enc.snapshots[:m.slots]
	enc.lazyGuards = enc.lazyGuards[:m.lazyGuards]
	enc.goalClauses = enc.goalClauses[:m.goals]
	enc.justiceClauses = enc.justiceClauses[:m.justice]
	enc.kappa = m.kappa
	enc.shared = m.shared
}

// addSegment appends one accelerated slot (eager guards) per rule enabled
// under the unlocked set (see segment) — one topological segment of a
// full-mode schema.
func (enc *encoding) addSegment(unlocked guardSet) error {
	for _, ri := range enc.e.segment(enc.an, unlocked).rules {
		if err := enc.addSlot(ri, false); err != nil {
			return err
		}
	}
	return nil
}

// newEncoding sets up the base constraints: resilience, the initial
// distribution of the n-f correct processes over the admissible initial
// locations, and zeroed shared variables.
func (e *Engine) newEncoding(an *analysis) (*encoding, error) {
	// Fresh encoding variables live in a private snapshot of the automaton's
	// table: every encoding of the same schema then assigns them identical
	// symbol ids no matter how many encoders run concurrently, and the shared
	// table stays read-only during checks.
	tab := e.ta.Table.Snapshot(e.baseSyms)
	enc := &encoding{
		e:        e,
		an:       an,
		tab:      tab,
		solver:   smt.NewSolver(tab),
		shared:   make(map[expr.Sym]expr.Lin, len(e.ta.Shared)),
		initVars: make(map[ta.LocID]expr.Sym, len(an.initLocs)),
	}
	enc.solver.AssertAll(an.resilience)

	enc.kappa = make([]expr.Lin, len(e.ta.Locations))
	sum := expr.Lin{}
	for _, l := range an.initLocs {
		x := tab.Intern(fmt.Sprintf("$x.%s", e.ta.Locations[l].Name))
		enc.initVars[l] = x
		enc.kappa[l] = expr.Var(x)
		if err := sum.AddTerm(x, 1); err != nil {
			return nil, err
		}
	}
	// Σ initial counters == n - f.
	eq, err := expr.Eq(sum, e.ta.CorrectCount)
	if err != nil {
		return nil, err
	}
	enc.solver.Assert(eq)

	for _, s := range e.ta.Shared {
		enc.shared[s] = expr.Lin{}
	}
	return enc, nil
}

// at substitutes a shared-variable snapshot into a constraint over shared
// variables and parameters.
func at(c expr.Constraint, snapshot map[expr.Sym]expr.Lin) (expr.Constraint, error) {
	out := c.Clone()
	for s, val := range snapshot {
		if err := out.L.Substitute(s, val); err != nil {
			return expr.Constraint{}, err
		}
	}
	return out, nil
}

// atNow substitutes the current symbolic shared-variable values.
func (enc *encoding) atNow(c expr.Constraint) (expr.Constraint, error) {
	return at(c, enc.shared)
}

func (enc *encoding) snapshotShared() map[expr.Sym]expr.Lin {
	snap := make(map[expr.Sym]expr.Lin, len(enc.shared))
	for s, l := range enc.shared {
		snap[s] = l // Lins are treated as immutable once stored
	}
	return snap
}

// addSlot appends an accelerated firing of the rule. When lazyGuard is set,
// each guard conjunct later contributes the clause "factor = 0 OR conjunct
// holds here" (built in finalizeClauses, so that guard assertions can carry
// their rising-monotonicity implications); otherwise the caller is
// responsible for guard truth (full mode asserts guards at context
// boundaries).
func (enc *encoding) addSlot(ruleIdx int, lazyGuard bool) error {
	e := enc.e
	r := e.ta.Rules[ruleIdx]
	d := enc.tab.Intern(fmt.Sprintf("$d%d.%s", len(enc.slots), r.Name))

	// κ[from] >= δ at this frame.
	avail := enc.kappa[r.From].Clone()
	if err := avail.AddTerm(d, -1); err != nil {
		return err
	}
	enc.solver.Assert(expr.GEZero(avail))

	// Only finalizeClauses reads a frame's snapshot, and only for slots that
	// carry lazy guards; the others keep a nil entry so indices stay aligned.
	slotIdx := len(enc.slots)
	var snap map[expr.Sym]expr.Lin
	if lazyGuard && len(r.Guard) > 0 {
		snap = enc.snapshotShared()
	}
	enc.snapshots = append(enc.snapshots, snap)
	if lazyGuard {
		for _, g := range r.Guard {
			enc.lazyGuards = append(enc.lazyGuards, pendingGuard{
				slotIdx: slotIdx,
				key:     g.String(e.ta.Table),
				g:       g,
			})
		}
	}

	// Apply the symbolic update.
	from := enc.kappa[r.From].Clone()
	if err := from.AddTerm(d, -1); err != nil {
		return err
	}
	enc.kappa[r.From] = from
	to := enc.kappa[r.To].Clone()
	if err := to.AddTerm(d, 1); err != nil {
		return err
	}
	enc.kappa[r.To] = to
	for s, inc := range r.Update {
		v := enc.shared[s].Clone()
		if err := v.AddTerm(d, inc); err != nil {
			return err
		}
		enc.shared[s] = v
	}
	enc.slots = append(enc.slots, slot{ruleIdx: ruleIdx, delta: d})
	return nil
}

// assertGuardNow asserts that the guard holds at the current frame (full
// mode context boundaries).
func (enc *encoding) assertGuardNow(g expr.Constraint) error {
	now, err := enc.atNow(g)
	if err != nil {
		return err
	}
	enc.solver.Assert(now)
	return nil
}

// assertQueryConditions adds the query's witness and final-state conditions.
// Call after all slots have been added.
func (enc *encoding) assertQueryConditions() error {
	e := enc.e
	q := enc.an.q

	// InitEmpty: initial counter is zero (locations without an initial
	// counter variable are zero by construction).
	for _, l := range q.InitEmpty {
		if x, ok := enc.initVars[l]; ok {
			enc.solver.Assert(expr.EQZero(expr.Var(x)))
		}
	}
	// GlobalEmpty locations had their incoming rules removed by the
	// analysis; it remains to pin any initial processes to zero.
	for _, l := range q.GlobalEmpty {
		if x, ok := enc.initVars[l]; ok {
			enc.solver.Assert(expr.EQZero(expr.Var(x)))
		}
	}

	// Visit witnesses: initial occupancy of the set plus total inflow from
	// outside is at least one.
	for _, set := range q.VisitNonempty {
		flow := expr.Lin{}
		for l := range set {
			if x, ok := enc.initVars[l]; ok {
				if err := flow.AddTerm(x, 1); err != nil {
					return err
				}
			}
		}
		for _, sl := range enc.slots {
			r := e.ta.Rules[sl.ruleIdx]
			if set[r.To] && !set[r.From] {
				if err := flow.AddTerm(sl.delta, 1); err != nil {
					return err
				}
			}
		}
		if err := flow.AddConst(-1); err != nil {
			return err
		}
		enc.solver.Assert(expr.GEZero(flow))
	}

	// Final shared-variable thresholds.
	for _, c := range q.FinalShared {
		now, err := enc.atNow(c)
		if err != nil {
			return err
		}
		enc.solver.Assert(now)
	}

	// Final nonemptiness of (predecessor-closed) goal sets: asserted as a
	// linear constraint for relaxation tightness AND as a clause so the
	// case split branches on *which* location stays occupied first.
	for _, set := range q.FinalNonempty {
		sum := expr.Lin{}
		var locs []ta.LocID
		for l := range set {
			locs = append(locs, l)
		}
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		var clause smt.Clause
		for _, l := range locs {
			if err := sum.Add(enc.kappa[l]); err != nil {
				return err
			}
			nonzero := enc.kappa[l].Clone()
			if err := nonzero.AddConst(-1); err != nil {
				return err
			}
			clause = append(clause, smt.Lit{C: expr.GEZero(nonzero)})
		}
		if err := sum.AddConst(-1); err != nil {
			return err
		}
		enc.solver.Assert(expr.GEZero(sum))
		if len(clause) > 1 {
			enc.goalClauses = append(enc.goalClauses, clause)
		}
	}

	// Justice: the stuttering extension from the final configuration must be
	// fair — for each requirement, either some trigger conjunct is (and
	// stays) false, or the location has drained.
	if q.Kind == spec.Liveness {
		for _, j := range q.Justice {
			clause := smt.Clause{}
			for _, trig := range j.Trigger {
				now, err := enc.atNow(trig)
				if err != nil {
					return err
				}
				neg, err := now.Negate()
				if err != nil {
					return err
				}
				clause = append(clause, smt.Lit{C: neg})
			}
			clause = append(clause, smt.Lit{C: expr.EQZero(enc.kappa[j.Loc].Clone())})
			enc.justiceClauses = append(enc.justiceClauses, clause)
		}
	}
	return nil
}

// finalizeClauses assembles the clause list: goal clauses first (they shape
// the search), then justice, then the per-firing guard obligations. Each
// guard literal carries implied assertions: a rising guard true at one frame
// is true at every later frame where the same guard is consulted (including
// the final frame), which collapses the per-pass branching.
func (enc *encoding) finalizeClauses() ([]smt.Clause, error) {
	clauses := make([]smt.Clause, 0, len(enc.goalClauses)+len(enc.justiceClauses)+len(enc.lazyGuards))
	clauses = append(clauses, enc.goalClauses...)
	clauses = append(clauses, enc.justiceClauses...)

	// Later frames per guard key, in slot order.
	laterFrames := make(map[string][]int)
	for _, pg := range enc.lazyGuards {
		laterFrames[pg.key] = append(laterFrames[pg.key], pg.slotIdx)
	}

	for _, pg := range enc.lazyGuards {
		sl := enc.slots[pg.slotIdx]
		dZero := expr.GEZero(expr.Term(sl.delta, -1))

		now, err := at(pg.g, enc.snapshots[pg.slotIdx])
		if err != nil {
			return nil, err
		}
		var implied []expr.Constraint
		for _, j := range laterFrames[pg.key] {
			if j <= pg.slotIdx {
				continue
			}
			later, err := at(pg.g, enc.snapshots[j])
			if err != nil {
				return nil, err
			}
			implied = append(implied, later)
		}
		// ... and at the final frame (helps justice clauses that share the
		// guard as a trigger).
		end, err := enc.atNow(pg.g)
		if err != nil {
			return nil, err
		}
		implied = append(implied, end)

		clauses = append(clauses, smt.Clause{
			{C: dZero},
			{C: now, Implied: implied},
		})
	}
	return clauses, nil
}

// solve runs the lazy-clause search and, on Sat, extracts and certifies a
// concrete counterexample.
func (enc *encoding) solve() (smt.Status, *Counterexample, error) {
	clauses, err := enc.finalizeClauses()
	if err != nil {
		return 0, nil, err
	}
	limits := smt.ClauseLimits{
		MaxSplits: enc.e.opts.MaxSplits,
		Stop:      enc.e.opts.Stop,
		Deadline:  enc.deadline, // zero = none; honored down in branch-and-bound
	}
	st, model, err := enc.solver.CheckClauses(clauses, limits)
	if err != nil {
		return 0, nil, err
	}
	if st != smt.Sat {
		return st, nil, nil
	}
	ce, err := enc.extract(model)
	if err != nil {
		return 0, nil, err
	}
	return smt.Sat, ce, nil
}

// extract materializes the SMT model into a counter-system run, replays it,
// and re-certifies every query condition on the concrete trace. A
// counterexample that fails certification indicates an encoder bug and is
// reported as an error, never returned to the caller.
func (enc *encoding) extract(m smt.Model) (*Counterexample, error) {
	e := enc.e
	a := e.ta

	params := make(map[expr.Sym]int64, len(a.Params))
	for _, p := range a.Params {
		params[p] = m.Value(p)
	}
	sysTA := a
	if enc.an.q.RelaxResilience != nil {
		sysTA = a.WithResilience(enc.an.q.RelaxResilience)
	}
	sys, err := counter.NewSystem(sysTA, params)
	if err != nil {
		return nil, fmt.Errorf("schema: extracted parameters invalid: %w", err)
	}

	init := counter.Config{K: make([]int64, len(a.Locations)), V: make([]int64, len(a.Shared))}
	for l, x := range enc.initVars {
		init.K[l] = m.Value(x)
	}
	run := counter.Run{Init: init}
	for _, sl := range enc.slots {
		if f := m.Value(sl.delta); f > 0 {
			run.Steps = append(run.Steps, counter.Step{Rule: sl.ruleIdx, Factor: f})
		}
	}

	trace, err := sys.Replay(run)
	if err != nil {
		return nil, fmt.Errorf("schema: counterexample does not replay: %w\n%s", err, sys.Format(run))
	}
	if err := certify(sys, enc.an.q, trace); err != nil {
		return nil, fmt.Errorf("schema: counterexample fails certification: %w\n%s", err, sys.Format(run))
	}
	return &Counterexample{Params: params, Run: run, System: sys}, nil
}
