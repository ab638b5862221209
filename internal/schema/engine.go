// Package schema implements the parameterized model checker of the paper:
// the stand-in for ByMC. It decides spec.Query counterexample problems over
// threshold automata for ALL parameter valuations admitted by the resilience
// condition, using the schema method of Konnov et al. (POPL'17) that the
// paper runs:
//
//   - all guards are rising, so along any execution the set of unlocked
//     guards only grows; a *schema* fixes the order in which guards unlock
//     and slices the execution into segments with a constant guard context;
//   - within a segment every enabled rule fires a nonnegative accelerated
//     factor, in topological order of the (DAG) automaton, which realizes
//     any interleaving;
//   - each schema becomes a quantifier-free linear-integer-arithmetic
//     query over parameters, initial counters and acceleration factors,
//     discharged by internal/smt.
//
// Two modes are provided. FullEnumeration enumerates ordered subsets of the
// guard alphabet (the original POPL'17 scheme — exact, but the schema count
// explodes with the number of guards: the fate of the naive automaton in
// Table 2). Staged builds a single dependency-staged schema and discharges
// guard obligations and justice requirements by model-guided lazy case
// splitting (the Para2-style optimization that makes the simplified
// automaton check in seconds).
//
// Every counterexample is replayed on the concrete counter system
// (internal/counter) and re-certified against the query before being
// reported.
package schema

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
)

// Mode selects the schema enumeration strategy.
type Mode int

const (
	// FullEnumeration enumerates ordered guard subsets (exact, explodes).
	FullEnumeration Mode = iota + 1
	// Staged uses one dependency-staged schema with lazy case splitting.
	Staged
)

func (m Mode) String() string {
	switch m {
	case FullEnumeration:
		return "full"
	case Staged:
		return "staged"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode inverts Mode.String; the empty string selects the default,
// Staged.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "staged":
		return Staged, nil
	case "full":
		return FullEnumeration, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want staged or full)", s)
	}
}

// MaxSplits bounds lazy case splitting per schema, and ExtraPasses is the
// safety-margin passes staged schemas add. Both are fixed; every cache key
// still names them (vcache).
const (
	MaxSplits   = 1 << 16
	ExtraPasses = 1
)

// Options configures an Engine.
type Options struct {
	Mode Mode
	// MaxSchemas bounds full enumeration (0 = 100,000, the paper's cutoff).
	MaxSchemas int
	// Timeout bounds one Check call (0 = no timeout).
	Timeout time.Duration
	// Stop, when set, is polled inside the schema enumeration and the SMT
	// case-splitting and branch-and-bound searches; a true return aborts the
	// check with a Budget outcome. This is the cooperative-interrupt hook: a
	// signal handler flips a flag, the engine winds down at the next poll
	// and partial results survive.
	Stop func() bool
	// Workers sets the number of concurrent schema solvers used by full
	// enumeration (0 or 1 = sequential). Schemas are independent LIA
	// queries, so the solve phase is embarrassingly parallel; results are
	// deterministic regardless of the worker count — same outcome, same
	// schema count, and the lexicographically-least counterexample context
	// (see parallel.go for the argument).
	Workers int
	// Trace, when non-nil, receives structured span events: one "query"
	// span per Check, one "schema" event per discharged schema with encode
	// and solve durations. Purely observational — a nil tracer costs one
	// pointer check per emission point and tracing never affects verdicts.
	Trace *obs.Tracer
}

// Result reports the verdict for one query.
type Result struct {
	Query   string
	Mode    Mode
	Outcome spec.Outcome
	// Schemas counts enumerated schemas (FullEnumeration) or explored case
	// splits (Staged) — the "# schemas" column of Table 2.
	Schemas int
	// AvgLen is the average schema length in rule slots — the "avg length"
	// column of Table 2.
	AvgLen  float64
	Elapsed time.Duration
	// CE is the certified counterexample when Outcome == Violated.
	CE *Counterexample
	// Solver aggregates the SMT effort behind the verdict (LP runs, simplex
	// pivots, warm-start rebuilds, branch-and-bound nodes, case splits).
	Solver smt.Stats
	// Phases breaks the check into encode/solve/fold wall-clock time. The
	// values are observational: with Workers > 1 the encode and solve
	// components sum concurrent work across workers and vary run to run, so
	// they must never feed a verdict or a deterministic report field.
	Phases PhaseTimings
}

// Row is the deterministic report row of the verdict — the one rendering
// behind obs reports, service responses and the cluster's byte-comparisons.
// Budget rows zero the volatile fields (schema count, average length, solver
// effort): a wall-clock timeout or an interrupt cuts the enumeration at a
// nondeterministic point, so only the outcome itself is stable.
func (r Result) Row(model string) obs.QueryMetrics {
	row := obs.QueryMetrics{
		Model:   model,
		Query:   r.Query,
		Mode:    r.Mode.String(),
		Outcome: r.Outcome.Label(),
	}
	if r.Outcome != spec.Budget {
		row.Schemas, row.AvgLen, row.Solver = r.Schemas, r.AvgLen, r.Solver
	}
	return row
}

// PhaseTimings is the per-phase wall-clock breakdown of one check: Encode
// covers schema construction (enumeration plus constraint emission), Solve
// the SMT searches, Fold the deterministic prefix join.
type PhaseTimings struct {
	Encode time.Duration
	Solve  time.Duration
	Fold   time.Duration
}

// Add accumulates another check's phase breakdown into t.
func (t *PhaseTimings) Add(o PhaseTimings) {
	t.Encode += o.Encode
	t.Solve += o.Solve
	t.Fold += o.Fold
}

// Counterexample is a concrete violating execution.
type Counterexample struct {
	Params map[expr.Sym]int64
	Run    counter.Run
	System *counter.System
	// Schema, for full-enumeration counterexamples, is the ordered guard
	// context (guard keys in unlock order) of the schema that produced the
	// violation — deterministically the lexicographically-least violating
	// context. Staged-mode counterexamples leave it nil.
	Schema []string
}

// Format renders the counterexample for humans.
func (ce *Counterexample) Format() string {
	a := ce.System.TA
	s := fmt.Sprintf("parameters:")
	for _, p := range a.Params {
		s += fmt.Sprintf(" %s=%d", a.Table.Name(p), ce.Params[p])
	}
	return s + "\n" + ce.System.Format(ce.Run)
}

// Engine checks queries against one automaton. Check is safe for
// concurrent use: parallel property checks only share the automaton, whose
// symbol table is concurrency-safe and read-only during checks — every
// encoding interns its fresh variables into a private snapshot (see
// newEncoding), which is also what makes solver effort statistics
// deterministic under parallel enumeration.
type Engine struct {
	ta   *ta.TA // one-round
	opts Options

	baseSyms int // symbol-table length at construction: the snapshot prefix

	// sharedAt maps a symbol to its position in ta.Shared (-1 for any other
	// symbol), and updates lists each rule's shared-variable increments by
	// that position: the encoder's view of the automaton as slices.
	sharedAt []int32
	updates  [][]sharedInc
}

// sharedInc is a rule's increment of the shared variable at position pos.
type sharedInc struct {
	pos int
	inc int64
}

// sharedPos returns s's position in the automaton's shared variables, -1
// when s is not one.
func (e *Engine) sharedPos(s expr.Sym) int {
	if uint(s) < uint(len(e.sharedAt)) {
		return int(e.sharedAt[s])
	}
	return -1
}

// New builds an engine for the automaton (round-switch rules are stripped
// via OneRound automatically).
func New(a *ta.TA, opts Options) (*Engine, error) {
	oneRound := a.OneRound()
	if err := oneRound.Validate(); err != nil {
		return nil, err
	}
	if _, err := oneRound.TopoOrder(); err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = Staged
	}
	if opts.MaxSchemas <= 0 {
		opts.MaxSchemas = 100_000
	}
	e := &Engine{ta: oneRound, opts: opts, baseSyms: oneRound.Table.Len()}
	e.sharedAt = make([]int32, e.baseSyms)
	for s := range e.sharedAt {
		e.sharedAt[s] = -1
	}
	for i, s := range oneRound.Shared {
		e.sharedAt[s] = int32(i)
	}
	e.updates = make([][]sharedInc, len(oneRound.Rules))
	for ri, r := range oneRound.Rules {
		for s, inc := range r.Update {
			e.updates[ri] = append(e.updates[ri], sharedInc{pos: e.sharedPos(s), inc: inc})
		}
		slices.SortFunc(e.updates[ri], func(a, b sharedInc) int { return a.pos - b.pos })
	}
	return e, nil
}

// TA returns the (one-round) automaton the engine checks.
func (e *Engine) TA() *ta.TA { return e.ta }

// Opts returns the engine's resolved options (defaults applied by New).
// The result cache derives its keys from the verdict-relevant fields, so
// two engines with the same resolved options are interchangeable.
func (e *Engine) Opts() Options { return e.opts }

// Check decides the query.
func (e *Engine) Check(q *spec.Query) (Result, error) {
	start := time.Now()
	if err := q.Validate(e.ta); err != nil {
		return Result{}, err
	}
	res := Result{Query: q.Name, Mode: e.opts.Mode}
	endSpan := e.opts.Trace.Start("query", q.Name)
	var err error
	switch e.opts.Mode {
	case FullEnumeration:
		err = e.checkFull(q, &res, start)
	case Staged:
		err = e.checkStaged(q, &res, start)
	default:
		err = fmt.Errorf("schema: unknown mode %v", e.opts.Mode)
	}
	res.Elapsed = time.Since(start)
	endSpan(map[string]int64{
		"outcome":  int64(res.Outcome),
		"schemas":  int64(res.Schemas),
		"solve_ns": int64(res.Phases.Solve),
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}
