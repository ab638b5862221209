// Package counter implements the counter-system semantics Sys(TA) of
// threshold automata (Section 2 and Appendix A of the paper): configurations
// count how many processes occupy each location, transitions move processes
// along rules and apply shared-variable updates. It is the one counter
// system of the repository; a round is an index of it. A one-round system
// is the superround the schema checker verifies; a multi-round system holds
// per-round location counters and shared variables, and its round-switch
// rules move processes from round r to round r+1. It provides
//
//   - exact replay of (accelerated) runs, used to validate every
//     counterexample the schema checker produces,
//   - an explicit-state breadth-first checker for fixed parameters, the
//     TLC/SPIN-style baseline that the paper's related-work section contrasts
//     with parameterized model checking, over one round or several, and
//   - the Appendix A side of the reduction (rounds.go): the
//     communication-closure check that licenses it and the round-rigid
//     reordering of multi-round runs.
package counter

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// System is the counter system of a TA over Rounds rounds with fixed
// parameter values.
type System struct {
	TA     *ta.TA
	Params map[expr.Sym]int64
	Rounds int

	sharedIdx map[expr.Sym]int
}

// NewSystem builds the counter system of a TA over the given number of
// rounds under concrete parameters. The parameters must satisfy the
// automaton's resilience condition. A one-round system must not contain
// round-switch rules; a multi-round one must pass CheckCommClosed, since
// only then is checking one round sound for all of them.
func NewSystem(a *ta.TA, params map[expr.Sym]int64, rounds int) (*System, error) {
	switch {
	case rounds < 1:
		return nil, fmt.Errorf("counter: need at least one round, got %d", rounds)
	case rounds == 1:
		for _, r := range a.Rules {
			if r.RoundSwitch {
				return nil, fmt.Errorf("counter: %s has round-switch rules; call OneRound first", a.Name)
			}
		}
	default:
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if err := CheckCommClosed(a); err != nil {
			return nil, err
		}
	}
	for _, p := range a.Params {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("counter: missing value for parameter %s", a.Table.Name(p))
		}
	}
	val := func(s expr.Sym) int64 { return params[s] }
	for _, rc := range a.Resilience {
		ok, err := rc.Holds(val)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("counter: parameters violate resilience condition %s", rc.String(a.Table))
		}
	}
	idx := make(map[expr.Sym]int, len(a.Shared))
	for i, s := range a.Shared {
		idx[s] = i
	}
	return &System{TA: a, Params: params, Rounds: rounds, sharedIdx: idx}, nil
}

// NumCorrect evaluates the correct-process count (conventionally n-f).
func (s *System) NumCorrect() (int64, error) {
	return s.TA.CorrectCount.Eval(func(sym expr.Sym) int64 { return s.Params[sym] })
}

// Config is a configuration of the counter system, round-major: location
// counters K[r*len(TA.Locations)+l] and shared-variable values
// V[r*len(TA.Shared)+i] (i the position of the variable in TA.Shared) for
// every round r. With one round, K is indexed by ta.LocID.
type Config struct {
	K []int64
	V []int64
}

// Clone deep-copies the configuration.
func (c Config) Clone() Config {
	out := Config{K: make([]int64, len(c.K)), V: make([]int64, len(c.V))}
	copy(out.K, c.K)
	copy(out.V, c.V)
	return out
}

// Key returns a canonical string identity for visited-set hashing.
func (c Config) Key() string {
	return string(c.appendKey(make([]byte, 0, 4*(len(c.K)+len(c.V)))))
}

// appendKey appends Key's bytes to b.
func (c Config) appendKey(b []byte) []byte {
	for _, k := range c.K {
		b = append(strconv.AppendInt(b, k, 10), ',')
	}
	b = append(b, '|')
	for _, v := range c.V {
		b = append(strconv.AppendInt(b, v, 10), ',')
	}
	return b
}

// inRound suffixes a name with its round in a multi-round system.
func (s *System) inRound(name string, round int) string {
	if s.Rounds == 1 {
		return name
	}
	return name + "@" + strconv.Itoa(round)
}

// String renders the configuration with location and variable names.
func (s *System) String(c Config) string {
	nl, ns := len(s.TA.Locations), len(s.TA.Shared)
	var parts []string
	for i, k := range c.K {
		if k != 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", s.inRound(s.TA.Locations[i%nl].Name, i/nl), k))
		}
	}
	for i, v := range c.V {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", s.inRound(s.TA.Table.Name(s.TA.Shared[i%ns]), i/ns), v))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// valuation builds the symbol valuation of round r of c (parameters plus
// that round's shared variables).
func (s *System) valuation(c Config, round int) func(expr.Sym) int64 {
	v := c.V[round*len(s.TA.Shared):]
	return func(sym expr.Sym) int64 {
		if i, ok := s.sharedIdx[sym]; ok {
			return v[i]
		}
		return s.Params[sym]
	}
}

// guardHolds evaluates a rule's guard in round r of c.
func (s *System) guardHolds(c Config, round, ruleIdx int) (bool, error) {
	val := s.valuation(c, round)
	for _, g := range s.TA.Rules[ruleIdx].Guard {
		ok, err := g.Holds(val)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// lastRound is the last round a rule can fire in: a round switch needs a
// next round to move into.
func (s *System) lastRound(r ta.Rule) int {
	if r.RoundSwitch {
		return s.Rounds - 2
	}
	return s.Rounds - 1
}

// Enabled reports whether the rule can fire at least once in the round.
func (s *System) Enabled(c Config, round, ruleIdx int) (bool, error) {
	r := s.TA.Rules[ruleIdx]
	if round < 0 || round > s.lastRound(r) {
		return false, nil
	}
	if c.K[round*len(s.TA.Locations)+int(r.From)] < 1 {
		return false, nil
	}
	return s.guardHolds(c, round, ruleIdx)
}

// Step is one accelerated firing of a rule in a round. A round-switch rule
// moves its processes from Round to Round+1.
type Step struct {
	Round  int
	Rule   int
	Factor int64
}

// Apply fires the step's rule Factor times in its round (acceleration).
// Because guards are rising and updates are nonnegative, a rule whose guard
// holds before the burst stays enabled throughout it; Apply checks the guard
// once and that the source holds at least Factor processes.
func (s *System) Apply(c Config, st Step) (Config, error) {
	if st.Rule < 0 || st.Rule >= len(s.TA.Rules) {
		return Config{}, fmt.Errorf("counter: unknown rule %d", st.Rule)
	}
	r := s.TA.Rules[st.Rule]
	if st.Round < 0 || st.Round > s.lastRound(r) {
		return Config{}, fmt.Errorf("counter: rule %s cannot fire in round %d of %d", r.Name, st.Round, s.Rounds)
	}
	if st.Factor < 0 {
		return Config{}, fmt.Errorf("counter: negative factor %d", st.Factor)
	}
	if st.Factor == 0 {
		return c.Clone(), nil
	}
	nl := len(s.TA.Locations)
	from, to := st.Round*nl+int(r.From), st.Round*nl+int(r.To)
	if r.RoundSwitch {
		to += nl
	}
	if c.K[from] < st.Factor {
		return Config{}, fmt.Errorf("counter: rule %s needs %d processes at %s but only %d are there",
			s.inRound(r.Name, st.Round), st.Factor, s.inRound(s.TA.Locations[r.From].Name, st.Round), c.K[from])
	}
	ok, err := s.guardHolds(c, st.Round, st.Rule)
	if err != nil {
		return Config{}, err
	}
	if !ok {
		return Config{}, fmt.Errorf("counter: rule %s guard %s does not hold in %s",
			s.inRound(r.Name, st.Round), s.TA.GuardString(r), s.String(c))
	}
	out := c.Clone()
	out.K[from] -= st.Factor
	out.K[to] += st.Factor
	v := out.V[st.Round*len(s.TA.Shared):]
	for sym, d := range r.Update {
		v[s.sharedIdx[sym]] += d * st.Factor
	}
	return out, nil
}

// Run is an initial configuration together with a sequence of steps.
type Run struct {
	Init  Config
	Steps []Step
}

// checkInit validates an initial configuration: the system's dimensions,
// n-f processes, all of them in round 0's initial locations, and every
// shared variable at 0.
func (s *System) checkInit(c Config) error {
	nl := len(s.TA.Locations)
	if len(c.K) != s.Rounds*nl || len(c.V) != s.Rounds*len(s.TA.Shared) {
		return fmt.Errorf("counter: initial configuration has wrong dimensions")
	}
	var total int64
	for i, k := range c.K {
		if k < 0 {
			return fmt.Errorf("counter: negative counter at %s", s.inRound(s.TA.Locations[i%nl].Name, i/nl))
		}
		if k > 0 && (i >= nl || !s.TA.Locations[i].Initial) {
			return fmt.Errorf("counter: %d processes start in non-initial location %s",
				k, s.inRound(s.TA.Locations[i%nl].Name, i/nl))
		}
		total += k
	}
	want, err := s.NumCorrect()
	if err != nil {
		return err
	}
	if total != want {
		return fmt.Errorf("counter: initial configuration has %d processes, want n-f = %d", total, want)
	}
	ns := len(s.TA.Shared)
	for i, v := range c.V {
		if v != 0 {
			return fmt.Errorf("counter: shared variable %s starts at %d, want 0",
				s.inRound(s.TA.Table.Name(s.TA.Shared[i%ns]), i/ns), v)
		}
	}
	return nil
}

// InitialConfig places the given distribution over initial locations in
// round 0 and validates it as Replay does.
func (s *System) InitialConfig(k map[ta.LocID]int64) (Config, error) {
	c := Config{K: make([]int64, s.Rounds*len(s.TA.Locations)), V: make([]int64, s.Rounds*len(s.TA.Shared))}
	for l, n := range k {
		c.K[l] = n
	}
	if err := s.checkInit(c); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Replay validates and executes the run, returning every intermediate
// configuration (len(Steps)+1 entries). It fails if the initial
// configuration is not one (see InitialConfig) or if any step is illegal:
// an unknown rule, a round outside the system, or a firing the
// configuration does not allow.
func (s *System) Replay(run Run) ([]Config, error) {
	if err := s.checkInit(run.Init); err != nil {
		return nil, err
	}
	trace := make([]Config, 0, len(run.Steps)+1)
	cur := run.Init.Clone()
	trace = append(trace, cur)
	for i, st := range run.Steps {
		next, err := s.Apply(cur, st)
		if err != nil {
			return nil, fmt.Errorf("counter: step %d: %w", i, err)
		}
		cur = next
		trace = append(trace, cur)
	}
	return trace, nil
}

// Format renders a run for diagnostics: initial configuration and each
// non-trivial step.
func (s *System) Format(run Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "init: %s\n", s.String(run.Init))
	cur := run.Init
	for _, st := range run.Steps {
		if st.Factor == 0 {
			continue
		}
		next, err := s.Apply(cur, st)
		if err != nil {
			name := "#" + strconv.Itoa(st.Rule)
			if st.Rule >= 0 && st.Rule < len(s.TA.Rules) {
				name = s.inRound(s.TA.Rules[st.Rule].Name, st.Round)
			}
			fmt.Fprintf(&b, "  %s x%d: INVALID (%v)\n", name, st.Factor, err)
			return b.String()
		}
		r := s.TA.Rules[st.Rule]
		toRound := st.Round
		if r.RoundSwitch {
			toRound++
		}
		fmt.Fprintf(&b, "  %s x%d (%s -> %s): %s\n", s.inRound(r.Name, st.Round), st.Factor,
			s.inRound(s.TA.Locations[r.From].Name, st.Round), s.inRound(s.TA.Locations[r.To].Name, toRound), s.String(next))
		cur = next
	}
	return b.String()
}

// EnumerateInitial calls fn for every initial configuration: all
// distributions of the n-f correct processes over round 0's initial
// locations. Enumeration stops early if fn returns an error.
func (s *System) EnumerateInitial(fn func(Config) error) error {
	inits := s.TA.InitialLocs()
	nproc, err := s.NumCorrect()
	if err != nil {
		return err
	}
	k := make([]int64, s.Rounds*len(s.TA.Locations))
	var rec func(i int, left int64) error
	rec = func(i int, left int64) error {
		if i == len(inits)-1 {
			k[inits[i]] = left
			c := Config{K: append([]int64(nil), k...), V: make([]int64, s.Rounds*len(s.TA.Shared))}
			k[inits[i]] = 0
			return fn(c)
		}
		for take := int64(0); take <= left; take++ {
			k[inits[i]] = take
			if err := rec(i+1, left-take); err != nil {
				return err
			}
			k[inits[i]] = 0
		}
		return nil
	}
	if len(inits) == 0 {
		return fmt.Errorf("counter: no initial locations")
	}
	return rec(0, nproc)
}

// SumLocs returns Σ K[r][l] over the set's locations l in every round r.
func (s *System) SumLocs(c Config, set ta.LocSet) int64 {
	nl := len(s.TA.Locations)
	var sum int64
	for id := range set {
		for off := int(id); off < len(c.K); off += nl {
			sum += c.K[off]
		}
	}
	return sum
}

// unmet is the first final condition of a query that a configuration
// fails, as Final reports it. Its text is formatted only when printed: the
// explicit search can meet one in every state it visits.
type unmet struct {
	a    *ta.TA
	q    *spec.Query
	list string // "FinalShared", "FinalNonempty" or "Justice"
	i    int    // index into that list of q
}

func (u *unmet) Error() string {
	switch u.list {
	case "FinalShared":
		return fmt.Sprintf("final shared condition %s violated", u.q.FinalShared[u.i].String(u.a.Table))
	case "FinalNonempty":
		return fmt.Sprintf("final nonemptiness of %s violated", u.q.FinalNonempty[u.i].String(u.a))
	}
	j := u.q.Justice[u.i]
	return fmt.Sprintf("final configuration is not justice-stable: %s triggered but %s nonempty",
		j.Name, u.a.Locations[j.Loc].Name)
}

// Final checks the query's final conditions in c: every FinalShared
// constraint holds, every FinalNonempty set holds a process, and, for a
// liveness query, c is justice-stable: no justice requirement is triggered
// while its location holds a process (stuttering there forever is then a
// fair execution). It returns nil when all hold, an error naming the first
// that fails, or an evaluation error. Final conditions are stated over one
// round, so a multi-round system refuses a query that has any.
func (s *System) Final(c Config, q *spec.Query) error {
	if s.Rounds > 1 && (len(q.FinalShared) > 0 || len(q.FinalNonempty) > 0 || q.Kind == spec.Liveness) {
		return fmt.Errorf("counter: query %s has final conditions, which a %d-round system does not check", q.Name, s.Rounds)
	}
	val := s.valuation(c, 0)
	for i, sc := range q.FinalShared {
		ok, err := sc.Holds(val)
		if err != nil {
			return err
		}
		if !ok {
			return &unmet{a: s.TA, q: q, list: "FinalShared", i: i}
		}
	}
	for i, set := range q.FinalNonempty {
		if s.SumLocs(c, set) == 0 {
			return &unmet{a: s.TA, q: q, list: "FinalNonempty", i: i}
		}
	}
	if q.Kind != spec.Liveness {
		return nil
	}
	for i, j := range q.Justice {
		triggered := true
		for _, t := range j.Trigger {
			ok, err := t.Holds(val)
			if err != nil {
				return err
			}
			if !ok {
				triggered = false
				break
			}
		}
		if triggered && c.K[j.Loc] > 0 {
			return &unmet{a: s.TA, q: q, list: "Justice", i: i}
		}
	}
	return nil
}

// SortedRules returns rule indices ordered by source-location depth then rule
// index: the topological firing order used by schema segments.
func SortedRules(a *ta.TA) ([]int, error) {
	depth, err := a.Depth()
	if err != nil {
		return nil, err
	}
	var idx []int
	for i, r := range a.Rules {
		if r.SelfLoop() || r.RoundSwitch {
			continue
		}
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		rx, ry := a.Rules[idx[x]], a.Rules[idx[y]]
		if depth[rx.From] != depth[ry.From] {
			return depth[rx.From] < depth[ry.From]
		}
		return idx[x] < idx[y]
	})
	return idx, nil
}
