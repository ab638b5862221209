// Package ta defines threshold automata (TA), the modeling formalism of the
// paper: finite automata whose nodes are local states ("locations") of a
// process, whose edges ("rules") are guarded by linear threshold conditions
// over shared message counters and parameters (n, t, f), and whose semantics
// is the counter system of internal/counter.
//
// The package covers one-round and multi-round automata (round-switch rules),
// structural validation (guards must be rising, the rule graph must be a DAG
// modulo self-loops), and utilities used by the schema-based checker.
package ta

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// LocID identifies a location within a TA.
type LocID int

// Location is a local state of a process.
type Location struct {
	Name    string
	Initial bool
}

// Rule is a guarded edge of a TA. A process at From may move to To when every
// guard conjunct holds, incrementing shared variables per Update.
type Rule struct {
	Name string
	From LocID
	To   LocID
	// Guard is a conjunction of rising threshold constraints over shared
	// variables and parameters (empty = always enabled).
	Guard []expr.Constraint
	// Update maps shared variables to nonnegative increments.
	Update map[expr.Sym]int64
	// RoundSwitch marks the dotted edges connecting the final locations of a
	// round to the initial locations of the next round.
	RoundSwitch bool
}

// SelfLoop reports whether the rule loops on its source location.
func (r Rule) SelfLoop() bool { return r.From == r.To }

// TA is a threshold automaton.
type TA struct {
	Name      string
	Locations []Location
	Rules     []Rule

	// Table interns parameter and shared-variable symbols. Guard expressions
	// refer to these symbols.
	Table *expr.Table
	// Params are the parameter symbols, conventionally n, t, f.
	Params []expr.Sym
	// Shared are the shared-variable symbols updated by rules.
	Shared []expr.Sym
	// Resilience is the conjunction restricting parameters (e.g. n > 3t,
	// t >= f >= 0).
	Resilience []expr.Constraint
	// CorrectCount is the number of processes modeled by the automaton as an
	// expression over parameters, conventionally n - f (only correct
	// processes move through the TA; Byzantine behaviour is folded into the
	// guards).
	CorrectCount expr.Lin
}

// Builder constructs a TA incrementally with a fluent, misuse-resistant API.
type Builder struct {
	ta  *TA
	err error
}

// NewBuilder returns a builder for a TA with the conventional parameters
// n, t, f and the standard resilience condition n > 3t ∧ t >= f >= 0 and
// correct-process count n - f. Both can be overridden before Build.
func NewBuilder(name string) *Builder {
	tab := expr.NewTable()
	a := &TA{
		Name:  name,
		Table: tab,
	}
	b := &Builder{ta: a}
	n := tab.Intern("n")
	t := tab.Intern("t")
	f := tab.Intern("f")
	a.Params = []expr.Sym{n, t, f}

	// n - 3t - 1 >= 0, t - f >= 0, f >= 0, t >= 1 (at least one tolerated
	// fault keeps the thresholds meaningful).
	a.Resilience = []expr.Constraint{
		gez(b, sub(b, expr.Var(n), add(b, expr.Term(t, 3), expr.NewLin(1)))),
		gez(b, sub(b, expr.Var(t), expr.Var(f))),
		gez(b, expr.Var(f)),
		gez(b, sub(b, expr.Var(t), expr.NewLin(1))),
	}
	cc := expr.Var(n)
	if e := cc.AddTerm(f, -1); e != nil {
		b.err = e
	}
	a.CorrectCount = cc
	return b
}

func gez(b *Builder, l expr.Lin) expr.Constraint { return expr.GEZero(l) }

func add(b *Builder, x, y expr.Lin) expr.Lin {
	out := x.Clone()
	if err := out.Add(y); err != nil && b.err == nil {
		b.err = err
	}
	return out
}

func sub(b *Builder, x, y expr.Lin) expr.Lin {
	out := x.Clone()
	if err := out.Sub(y); err != nil && b.err == nil {
		b.err = err
	}
	return out
}

// N, T, F return the conventional parameter symbols.
func (b *Builder) N() expr.Sym { return b.ta.Params[0] }

// T returns the fault-bound parameter symbol.
func (b *Builder) T() expr.Sym { return b.ta.Params[1] }

// F returns the actual-fault-count parameter symbol.
func (b *Builder) F() expr.Sym { return b.ta.Params[2] }

// Shared interns a shared variable and registers it with the TA.
func (b *Builder) Shared(name string) expr.Sym {
	s := b.ta.Table.Intern(name)
	for _, existing := range b.ta.Shared {
		if existing == s {
			return s
		}
	}
	b.ta.Shared = append(b.ta.Shared, s)
	return s
}

// LocOpt configures a location.
type LocOpt func(*Location)

// Initial marks the location as a start location.
func Initial() LocOpt { return func(l *Location) { l.Initial = true } }

// Loc adds a location and returns its id.
func (b *Builder) Loc(name string, opts ...LocOpt) LocID {
	l := Location{Name: name}
	for _, o := range opts {
		o(&l)
	}
	b.ta.Locations = append(b.ta.Locations, l)
	return LocID(len(b.ta.Locations) - 1)
}

// GeThreshold builds the rising guard  shared >= rhs  where rhs is a linear
// expression over parameters (e.g. 2t+1-f).
func (b *Builder) GeThreshold(shared expr.Sym, rhs expr.Lin) expr.Constraint {
	l := expr.Var(shared)
	if err := l.Sub(rhs); err != nil && b.err == nil {
		b.err = err
	}
	return expr.GEZero(l)
}

// SumGeThreshold builds the rising guard  Σ shared_i >= rhs.
func (b *Builder) SumGeThreshold(shared []expr.Sym, rhs expr.Lin) expr.Constraint {
	l := expr.Lin{}
	for _, s := range shared {
		if err := l.AddTerm(s, 1); err != nil && b.err == nil {
			b.err = err
		}
	}
	if err := l.Sub(rhs); err != nil && b.err == nil {
		b.err = err
	}
	return expr.GEZero(l)
}

// Lin builds the expression  Σ coeff_i·param_i + c  for guard thresholds.
func (b *Builder) Lin(c int64, terms ...LinTerm) expr.Lin {
	l, err := expr.LinOf(c, terms...)
	if err != nil && b.err == nil {
		b.err = err
	}
	return l
}

// LinTerm is a coefficient-symbol pair for Builder.Lin.
type LinTerm = expr.LinTerm

// RuleOpt configures a rule.
type RuleOpt func(*Rule)

// Guarded attaches guard conjuncts.
func Guarded(cs ...expr.Constraint) RuleOpt {
	return func(r *Rule) { r.Guard = append(r.Guard, cs...) }
}

// Inc adds a +1 increment of a shared variable.
func Inc(s expr.Sym) RuleOpt {
	return func(r *Rule) {
		if r.Update == nil {
			r.Update = make(map[expr.Sym]int64)
		}
		r.Update[s]++
	}
}

// RoundSwitch marks the rule as a round-switch (dotted) edge.
func RoundSwitch() RuleOpt { return func(r *Rule) { r.RoundSwitch = true } }

// Rule adds a rule and returns its index.
func (b *Builder) Rule(name string, from, to LocID, opts ...RuleOpt) int {
	r := Rule{Name: name, From: from, To: to}
	for _, o := range opts {
		o(&r)
	}
	b.ta.Rules = append(b.ta.Rules, r)
	return len(b.ta.Rules) - 1
}

// SelfLoop adds an unguarded self-loop on loc (the paper adds one to every
// location a process may stay in forever; they model per-process asynchrony).
func (b *Builder) SelfLoop(loc LocID) int {
	return b.Rule("self_"+b.ta.Locations[loc].Name, loc, loc)
}

// Build validates and returns the automaton.
func (b *Builder) Build() (*TA, error) {
	if b.err != nil {
		return nil, fmt.Errorf("ta: building %s: %w", b.ta.Name, b.err)
	}
	if err := b.ta.Validate(); err != nil {
		return nil, err
	}
	return b.ta, nil
}

// MustBuild is Build for static model definitions whose validity is covered
// by tests; it panics on error.
func (b *Builder) MustBuild() *TA {
	a, err := b.Build()
	if err != nil {
		panic(err)
	}
	return a
}

// Validate checks the structural well-formedness invariants the checker
// relies on: valid endpoints, rising guards, nonnegative updates, and
// DAG-ness modulo self-loops and round-switch rules.
func (a *TA) Validate() error {
	if len(a.Locations) == 0 {
		return fmt.Errorf("ta %s: no locations", a.Name)
	}
	if len(a.InitialLocs()) == 0 {
		return fmt.Errorf("ta %s: no initial locations", a.Name)
	}
	names := make(map[string]bool, len(a.Locations))
	for _, l := range a.Locations {
		if names[l.Name] {
			return fmt.Errorf("ta %s: duplicate location name %q", a.Name, l.Name)
		}
		names[l.Name] = true
	}
	// The checkers rely on the correct-process count being meaningful: an
	// unset (constant zero) count would make every property vacuously true
	// over zero processes — a trap for hand-written .ta files.
	if a.CorrectCount.IsConst() && a.CorrectCount.Const == 0 {
		return fmt.Errorf("ta %s: correct-process count is not set (e.g. n - f)", a.Name)
	}
	isShared := make(map[expr.Sym]bool, len(a.Shared))
	for _, s := range a.Shared {
		isShared[s] = true
	}
	isParam := make(map[expr.Sym]bool, len(a.Params))
	for _, p := range a.Params {
		isParam[p] = true
	}
	for i, r := range a.Rules {
		if r.From < 0 || int(r.From) >= len(a.Locations) || r.To < 0 || int(r.To) >= len(a.Locations) {
			return fmt.Errorf("ta %s: rule %d (%s) has out-of-range endpoint", a.Name, i, r.Name)
		}
		// Self-loops model per-process stuttering only: both checkers skip
		// them, so a self-loop with effects would be silently unexplored —
		// an unsound blind spot. Reject at validation instead.
		if r.SelfLoop() && (len(r.Guard) > 0 || len(r.Update) > 0) {
			return fmt.Errorf("ta %s: self-loop %s must have no guard and no updates", a.Name, r.Name)
		}
		// Round-switch rules must be communication-closed (Appendix A):
		// OneRound drops them wholesale, so a guard or update on them would
		// silently disappear from the checked system.
		if r.RoundSwitch && (len(r.Guard) > 0 || len(r.Update) > 0) {
			return fmt.Errorf("ta %s: round-switch rule %s must have no guard and no updates", a.Name, r.Name)
		}
		for s, d := range r.Update {
			if !isShared[s] {
				return fmt.Errorf("ta %s: rule %s updates non-shared symbol %s", a.Name, r.Name, a.Table.Name(s))
			}
			if d < 0 {
				return fmt.Errorf("ta %s: rule %s decrements %s; only rising systems are supported", a.Name, r.Name, a.Table.Name(s))
			}
		}
		for _, g := range r.Guard {
			if g.Op != expr.GE {
				return fmt.Errorf("ta %s: rule %s guard must be a >= constraint", a.Name, r.Name)
			}
			for _, t := range g.L.Terms() {
				s, c := t.Sym, t.Coeff
				switch {
				case isShared[s]:
					if c < 0 {
						return fmt.Errorf("ta %s: rule %s guard is not rising in %s", a.Name, r.Name, a.Table.Name(s))
					}
				case isParam[s]:
					// any coefficient allowed on parameters
				default:
					return fmt.Errorf("ta %s: rule %s guard mentions unknown symbol %s", a.Name, r.Name, a.Table.Name(s))
				}
			}
		}
	}
	if err := a.checkDAG(); err != nil {
		return err
	}
	return nil
}

// checkDAG verifies that the non-self-loop, non-round-switch rule graph is
// acyclic.
func (a *TA) checkDAG() error {
	_, err := a.TopoOrder()
	return err
}

// TopoOrder returns the locations in a topological order of the progress
// edges (self-loops and round-switch rules excluded), or an error if the
// graph has a cycle.
func (a *TA) TopoOrder() ([]LocID, error) {
	n := len(a.Locations)
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		adj[r.From] = append(adj[r.From], int(r.To))
		indeg[r.To]++
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []LocID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, LocID(v))
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ta %s: progress graph has a cycle", a.Name)
	}
	return order, nil
}

// Depth returns, for every location, its longest-path depth from the sources
// of the progress DAG. Used to order rule firings topologically.
func (a *TA) Depth() ([]int, error) {
	order, err := a.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(a.Locations))
	for _, v := range order {
		for _, r := range a.Rules {
			if r.SelfLoop() || r.RoundSwitch || r.From != v {
				continue
			}
			if depth[r.To] < depth[v]+1 {
				depth[r.To] = depth[v] + 1
			}
		}
	}
	return depth, nil
}

// InitialLocs returns the ids of initial locations.
func (a *TA) InitialLocs() []LocID {
	var out []LocID
	for i, l := range a.Locations {
		if l.Initial {
			out = append(out, LocID(i))
		}
	}
	return out
}

// FinalLocs returns locations with no outgoing progress edges.
func (a *TA) FinalLocs() []LocID {
	hasOut := make([]bool, len(a.Locations))
	for _, r := range a.Rules {
		if !r.SelfLoop() && !r.RoundSwitch {
			hasOut[r.From] = true
		}
	}
	var out []LocID
	for i := range a.Locations {
		if !hasOut[i] {
			out = append(out, LocID(i))
		}
	}
	return out
}

// LocByName returns the id of the named location.
func (a *TA) LocByName(name string) (LocID, error) {
	for i, l := range a.Locations {
		if l.Name == name {
			return LocID(i), nil
		}
	}
	return 0, fmt.Errorf("ta %s: no location named %q", a.Name, name)
}

// MustLoc is LocByName for tests and static tables; it panics on error.
func (a *TA) MustLoc(name string) LocID {
	id, err := a.LocByName(name)
	if err != nil {
		panic(err)
	}
	return id
}

// SharedByName returns the symbol of the named shared variable.
func (a *TA) SharedByName(name string) (expr.Sym, error) {
	s := a.Table.Lookup(name)
	if s == expr.NoSym {
		return 0, fmt.Errorf("ta %s: no shared variable named %q", a.Name, name)
	}
	for _, sh := range a.Shared {
		if sh == s {
			return s, nil
		}
	}
	return 0, fmt.Errorf("ta %s: symbol %q is not a shared variable", a.Name, name)
}

// UniqueGuards returns the deduplicated nontrivial guard conjuncts appearing
// on the automaton's rules, in a deterministic order. This is the "unique
// guards" count of Table 2.
func (a *TA) UniqueGuards() []expr.Constraint {
	seen := make(map[string]expr.Constraint)
	for _, r := range a.Rules {
		for _, g := range r.Guard {
			seen[g.String(a.Table)] = g
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]expr.Constraint, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// OneRound returns a copy of the automaton with round-switch rules removed
// and with the initial-location set enlarged by the targets of round-switch
// rules (per the Appendix A reduction, checking a one-round system must admit
// every configuration a later round can start from).
func (a *TA) OneRound() *TA {
	out := &TA{
		Name:         a.Name + "-oneround",
		Locations:    append([]Location(nil), a.Locations...),
		Table:        a.Table,
		Params:       a.Params,
		Shared:       a.Shared,
		Resilience:   a.Resilience,
		CorrectCount: a.CorrectCount,
	}
	for _, r := range a.Rules {
		if r.RoundSwitch {
			out.Locations[r.To].Initial = true
			continue
		}
		out.Rules = append(out.Rules, r)
	}
	return out
}

// WithResilience returns a shallow copy of the automaton with the resilience
// condition replaced (used to search for counterexamples outside n > 3t).
func (a *TA) WithResilience(rc []expr.Constraint) *TA {
	out := *a
	out.Resilience = rc
	return &out
}

// NumSelfLoops counts self-loop rules.
func (a *TA) NumSelfLoops() int {
	n := 0
	for _, r := range a.Rules {
		if r.SelfLoop() {
			n++
		}
	}
	return n
}

// Size describes the automaton in the terms Table 2 uses.
type Size struct {
	UniqueGuards int
	Locations    int
	Rules        int
}

// Size returns the Table 2 size of the automaton. Rules counts every rule
// including self-loops and round-switch rules, matching the paper's counts
// (e.g. 19 for the bv-broadcast = 12 progress rules + 7 self-loops).
func (a *TA) Size() Size {
	return Size{
		UniqueGuards: len(a.UniqueGuards()),
		Locations:    len(a.Locations),
		Rules:        len(a.Rules),
	}
}

// String renders a compact description.
func (a *TA) String() string {
	s := a.Size()
	return fmt.Sprintf("%s: %d locations, %d rules, %d unique guards", a.Name, s.Locations, s.Rules, s.UniqueGuards)
}

// GuardString renders a rule's guard for diagnostics.
func (a *TA) GuardString(r Rule) string {
	if len(r.Guard) == 0 {
		return "true"
	}
	parts := make([]string, len(r.Guard))
	for i, g := range r.Guard {
		parts[i] = g.String(a.Table)
	}
	return strings.Join(parts, " && ")
}
