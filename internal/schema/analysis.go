package schema

import (
	"sync"
	"time"

	"repro/internal/counter"

	"repro/internal/expr"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
)

// guardInfo is one entry of the guard alphabet: a deduplicated nontrivial
// rising guard constraint appearing on the automaton's progress rules.
type guardInfo struct {
	key  string
	c    expr.Constraint
	vars []expr.Sym // shared variables with positive coefficients
	// initiallyTrue reports whether the guard can hold with all shared
	// variables at zero under the resilience condition.
	initiallyTrue bool
	// level is the unlock stage computed by the dependency fixpoint
	// (0 = can be true initially, k = unlockable after k waves of rules).
	level int
}

// analysis precomputes, per query, everything the enumerators need: the
// effective rule set (progress rules minus those entering GlobalEmpty
// locations), the guard alphabet, dependency levels and per-level location
// reachability.
type analysis struct {
	q          *spec.Query
	rules      []int   // effective progress rules, topologically ordered
	ruleGuards [][]int // per rules index: alphabet indices of its guard conjuncts
	guards     []*guardInfo
	guardIdx   map[string]int
	// alphabet is the full-enumeration alphabet: the guards that gate at
	// least one rule, in interning order. The walk iterates it in this fixed
	// order, which defines the preorder the parallel enumeration preserves.
	alphabet   []int
	resilience []expr.Constraint
	initLocs   []ta.LocID // initial locations minus Init/GlobalEmpty
	// visitSets and goalSets are q.VisitNonempty and q.FinalNonempty, each
	// set's locations in ascending order.
	visitSets, goalSets [][]ta.LocID

	// reachByLevel[k] = locations reachable using rules whose guards have
	// level <= k. The last entry is the fixpoint.
	reachByLevel []map[ta.LocID]bool
	// ruleLevel[i] = max level over the rule's guard conjuncts (0 for
	// trivially-guarded rules), or -1 if the rule can never fire.
	ruleLevel map[int]int
	maxLevel  int
	// backwardGuards counts gating guards that can be unlocked by a rule at
	// depth >= some rule they gate: only these force a pass boundary in the
	// staged schema (see staged.go).
	backwardGuards int
	gatingGuards   int

	// segs memoises, per unlocked guard set, what full mode derives from the
	// set alone (see segment). Cursors on every solveRange worker and the
	// enumerator share it, hence the lock; it holds one entry per distinct
	// set the walk reaches, not one per context.
	segMu sync.Mutex
	segs  map[string]*segment
}

// guardSet is a set of guard indices as a bitset over analysis.guards; its
// bytes are the key of the structural table.
type guardSet []byte

func (an *analysis) newGuardSet() guardSet { return make(guardSet, (len(an.guards)+7)/8) }

func (s guardSet) has(gi int) bool { return s[gi>>3]&(1<<(gi&7)) != 0 }
func (s guardSet) add(gi int)      { s[gi>>3] |= 1 << (gi & 7) }
func (s guardSet) remove(gi int)   { s[gi>>3] &^= 1 << (gi & 7) }

// ruleEnabled is the one definition of "rule an.rules[i] is enabled under
// the unlocked set": every guard conjunct is unlocked.
func (an *analysis) ruleEnabled(i int, unlocked guardSet) bool {
	for _, gi := range an.ruleGuards[i] {
		if !unlocked.has(gi) {
			return false
		}
	}
	return true
}

// segment is everything full mode derives structurally from an unlocked
// guard set, shared by the enumerator (next), the encoder (rules) and the
// cursor's dead-subtree slot count (len(rules)).
type segment struct {
	// rules are the e.ta.Rules indices one topological segment fires, in
	// order: guard conjuncts all unlocked and source location reachable via
	// such rules from the initial locations.
	rules []int
	// next are the alphabet guards outside the set that could become true
	// next, in alphabet order: satisfiable with zero increments, or some
	// enabled rule increments one of their variables. Like ByMC's
	// enumeration this prunes only by guard dependency, not by location
	// reachability — reachability pruning would shrink the naive automaton's
	// schema count below the explosion the paper reports (it is still
	// applied to rules, where it is a pure optimization).
	next []int
}

// segment returns the table entry of the unlocked set, computing it on first
// use. The caller may keep mutating unlocked afterwards.
func (e *Engine) segment(an *analysis, unlocked guardSet) *segment {
	an.segMu.Lock()
	defer an.segMu.Unlock()
	if sg, ok := an.segs[string(unlocked)]; ok {
		return sg
	}
	var enabled []int // indices into an.rules
	for i := range an.rules {
		if an.ruleEnabled(i, unlocked) {
			enabled = append(enabled, i)
		}
	}
	reach := make(map[ta.LocID]bool, len(e.ta.Locations))
	for _, l := range an.initLocs {
		reach[l] = true
	}
	for changed := true; changed; {
		changed = false
		for _, i := range enabled {
			r := e.ta.Rules[an.rules[i]]
			if reach[r.From] && !reach[r.To] {
				reach[r.To] = true
				changed = true
			}
		}
	}
	sg := &segment{}
	for _, i := range enabled {
		if reach[e.ta.Rules[an.rules[i]].From] {
			sg.rules = append(sg.rules, an.rules[i])
		}
	}
	incremented := make(map[expr.Sym]bool)
	for _, i := range enabled {
		for v, d := range e.ta.Rules[an.rules[i]].Update {
			if d > 0 {
				incremented[v] = true
			}
		}
	}
	for _, gi := range an.alphabet {
		if unlocked.has(gi) {
			continue
		}
		g := an.guards[gi]
		ok := g.initiallyTrue
		for _, v := range g.vars {
			ok = ok || incremented[v]
		}
		if ok {
			sg.next = append(sg.next, gi)
		}
	}
	if an.segs == nil {
		an.segs = make(map[string]*segment)
	}
	an.segs[string(unlocked)] = sg
	return sg
}

// analyze runs the structural pass for one query. The deadline (zero = none)
// bounds the guard-satisfiability solves the pass itself performs, so a
// pathological guard cannot make the analysis phase outlive the engine
// timeout or ignore a cooperative interrupt.
func (e *Engine) analyze(q *spec.Query, deadline time.Time) (*analysis, error) {
	a := e.ta
	an := &analysis{q: q, guardIdx: make(map[string]int), ruleLevel: make(map[int]int)}

	an.resilience = a.Resilience
	if q.RelaxResilience != nil {
		an.resilience = q.RelaxResilience
	}

	globalEmpty := make(map[ta.LocID]bool)
	for _, l := range q.GlobalEmpty {
		globalEmpty[l] = true
	}
	emptyInit := make(map[ta.LocID]bool)
	for _, l := range q.InitEmpty {
		emptyInit[l] = true
	}
	for _, l := range a.InitialLocs() {
		if !globalEmpty[l] && !emptyInit[l] {
			an.initLocs = append(an.initLocs, l)
		}
	}
	for _, set := range q.VisitNonempty {
		an.visitSets = append(an.visitSets, set.Sorted())
	}
	for _, set := range q.FinalNonempty {
		an.goalSets = append(an.goalSets, set.Sorted())
	}

	sorted, err := counter.SortedRules(a)
	if err != nil {
		return nil, err
	}
	for _, ri := range sorted {
		r := a.Rules[ri]
		if globalEmpty[r.To] {
			continue // firing would violate the □-emptiness premise
		}
		an.rules = append(an.rules, ri)
	}

	// Build the guard alphabet: rule guards plus (for liveness) the justice
	// trigger constraints, so that contexts determine their truth.
	intern := func(c expr.Constraint) (int, error) {
		key := c.String(a.Table)
		if gi, ok := an.guardIdx[key]; ok {
			return gi, nil
		}
		gi := len(an.guards)
		info := &guardInfo{key: key, c: c}
		for _, t := range c.L.Terms() {
			if t.Coeff > 0 && isShared(a, t.Sym) {
				info.vars = append(info.vars, t.Sym)
			}
		}
		it, err := e.guardInitiallyTrue(c, an.resilience, deadline)
		if err != nil {
			return 0, err
		}
		info.initiallyTrue = it
		an.guards = append(an.guards, info)
		an.guardIdx[key] = gi
		return gi, nil
	}

	an.ruleGuards = make([][]int, len(an.rules))
	for i, ri := range an.rules {
		for _, g := range a.Rules[ri].Guard {
			gi, err := intern(g)
			if err != nil {
				return nil, err
			}
			an.ruleGuards[i] = append(an.ruleGuards[i], gi)
		}
	}
	if q.Kind == spec.Liveness {
		for _, j := range q.Justice {
			for _, trig := range j.Trigger {
				if _, err := intern(trig); err != nil {
					return nil, err
				}
			}
		}
	}

	gating := make(map[int]bool)
	for i := range an.rules {
		for _, gi := range an.ruleGuards[i] {
			gating[gi] = true
		}
	}
	for gi := range an.guards {
		if gating[gi] {
			an.alphabet = append(an.alphabet, gi)
		}
	}

	if err := an.computeLevels(a); err != nil {
		return nil, err
	}
	if err := an.computeBackwardGuards(a); err != nil {
		return nil, err
	}
	return an, nil
}

// computeBackwardGuards classifies every live gating guard as forward or
// backward. A guard is *forward* when every rule that can increment one of
// its variables sits strictly shallower in the progress DAG than every rule
// it gates: then, within a single topological pass, the unlocking increments
// always precede the gated firings, so the guard's unlock never requires a
// new pass. A *backward* guard (some incrementer at depth >= some gated
// rule) forces at most one pass boundary — it unlocks only once.
func (an *analysis) computeBackwardGuards(a *ta.TA) error {
	depth, err := a.Depth()
	if err != nil {
		return err
	}
	gatedMinDepth := make(map[int]int)
	for i, ri := range an.rules {
		if an.ruleLevel[i] < 0 {
			continue
		}
		d := depth[a.Rules[ri].From]
		for _, gi := range an.ruleGuards[i] {
			if cur, ok := gatedMinDepth[gi]; !ok || d < cur {
				gatedMinDepth[gi] = d
			}
		}
	}
	an.gatingGuards = len(gatedMinDepth)
	for gi, minDepth := range gatedMinDepth {
		// Note: initiallyTrue guards are NOT exempt — initial truth is an
		// existential check over parameters, so for other parameter
		// valuations the guard may still unlock backward and need its pass.
		backward := false
		for i, ri := range an.rules {
			if an.ruleLevel[i] < 0 || backward {
				continue
			}
			r := a.Rules[ri]
			for _, v := range an.guards[gi].vars {
				if d, ok := r.Update[v]; ok && d > 0 && depth[r.From] >= minDepth {
					backward = true
					break
				}
			}
		}
		if backward {
			an.backwardGuards++
		}
	}
	return nil
}

func isShared(a *ta.TA, s expr.Sym) bool {
	for _, sh := range a.Shared {
		if sh == s {
			return true
		}
	}
	return false
}

// guardInitiallyTrue checks whether the guard can hold before any rule fires
// (all shared variables zero), under the resilience condition. The solve is
// routed through CheckIntegerLimits with the engine's Stop hook and the
// check deadline: the raw CheckInteger it used to call bypassed both, so a
// guard whose branch-and-bound search was slow (not merely node-hungry) kept
// the analysis phase running through SIGINT and -timeout.
func (e *Engine) guardInitiallyTrue(g expr.Constraint, resilience []expr.Constraint, deadline time.Time) (bool, error) {
	zeroed := g.Clone()
	for _, s := range e.ta.Shared {
		if err := zeroed.L.Substitute(s, expr.NewLin(0)); err != nil {
			return false, err
		}
	}
	solver := smt.NewSolver(e.ta.Table)
	solver.AssertAll(resilience)
	solver.Assert(zeroed)
	st, _, err := solver.CheckIntegerLimits(smt.ClauseLimits{
		MaxBBNodes: 1 << 14,
		Deadline:   deadline,
		Stop:       e.opts.Stop,
	})
	if err != nil {
		return false, err
	}
	// Unknown (budget exhausted) must be treated as "possibly true":
	// initiallyTrue only ever ADDS unlockability and schedule slots, so the
	// conservative answer keeps the checker sound.
	return st != smt.Unsat, nil
}

// computeLevels runs the dependency fixpoint: wave k+1 unlocks every guard
// whose positive shared variables can be incremented by a rule that is
// available at wave k (guard unlocked, source reachable). It also records
// the reachable location set per wave.
func (an *analysis) computeLevels(a *ta.TA) error {
	unlocked := an.newGuardSet()
	for gi, g := range an.guards {
		if g.initiallyTrue || len(g.vars) == 0 {
			unlocked.add(gi)
			g.level = 0
		}
	}

	reach := make(map[ta.LocID]bool)
	for _, l := range an.initLocs {
		reach[l] = true
	}

	ruleAvailable := func(i int) bool {
		return reach[a.Rules[an.rules[i]].From] && an.ruleEnabled(i, unlocked)
	}

	// Close reachability under currently available rules.
	closeReach := func() {
		for changed := true; changed; {
			changed = false
			for i, ri := range an.rules {
				r := a.Rules[ri]
				if reach[r.From] && !reach[r.To] && ruleAvailable(i) {
					reach[r.To] = true
					changed = true
				}
			}
		}
	}

	level := 0
	closeReach()
	an.reachByLevel = append(an.reachByLevel, copyReach(reach))

	for {
		// Which shared variables can currently be incremented?
		incrementable := make(map[expr.Sym]bool)
		for i, ri := range an.rules {
			if !ruleAvailable(i) {
				continue
			}
			for s, d := range a.Rules[ri].Update {
				if d > 0 {
					incrementable[s] = true
				}
			}
		}
		changed := false
		for gi, g := range an.guards {
			if unlocked.has(gi) {
				continue
			}
			for _, v := range g.vars {
				if incrementable[v] {
					unlocked.add(gi)
					g.level = level + 1
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
		level++
		closeReach()
		an.reachByLevel = append(an.reachByLevel, copyReach(reach))
	}
	an.maxLevel = level

	for i := range an.rules {
		if !ruleAvailable(i) {
			an.ruleLevel[i] = -1
			continue
		}
		lv := 0
		for _, gi := range an.ruleGuards[i] {
			if an.guards[gi].level > lv {
				lv = an.guards[gi].level
			}
		}
		an.ruleLevel[i] = lv
	}
	return nil
}

func copyReach(m map[ta.LocID]bool) map[ta.LocID]bool {
	out := make(map[ta.LocID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// reachAt returns the reachability set for a wave, clamped to the fixpoint.
func (an *analysis) reachAt(level int) map[ta.LocID]bool {
	if level >= len(an.reachByLevel) {
		return an.reachByLevel[len(an.reachByLevel)-1]
	}
	if level < 0 {
		level = 0
	}
	return an.reachByLevel[level]
}
