// Package vcache is the verification result cache: a content-addressed
// store of property verdicts keyed by a structural hash of the
// (threshold automaton, query, engine configuration, engine version)
// quadruple.
//
// The paper's pitch is that holistic verification is cheap enough to rerun —
// Table 2 re-checks the same fixed (automaton, property) pairs in seconds —
// yet every invocation of the checker re-enumerates and re-solves from
// scratch. Verdicts are deterministic at any worker count (see
// internal/schema/parallel.go), so a verdict computed once is a verdict
// forever, for the same inputs and the same engine: this package makes
// "same inputs" precise (a canonical serialization independent of process
// boundaries, map iteration order and symbol-table internals) and makes
// "same engine" explicit (EngineVersion participates in every key, so an
// engine change invalidates the whole corpus wholesale rather than serving
// stale verdicts).
//
// Trust model. A cache hit is only trusted after structural validation:
// the stored key and engine version must match the request, the frame CRC
// must verify (see entry.go), and a Violated entry must re-certify by
// replaying its counterexample on the concrete counter system. Any failure
// downgrades the hit to a miss and the property is re-verified — a corrupt
// or stale cache can cost time, never a wrong verdict.
package vcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
)

// EngineVersion identifies the verification engine embedded in every cache
// key. Bump it whenever a change can alter any deterministic result field
// (verdicts, schema counts, average lengths, solver effort, counterexample
// selection): the golden-hash test in golden_test.go pins the canonical
// automaton hashes against it, and a bump invalidates every cached entry by
// changing every key.
// 1.1.0: incremental prefix-sharing full-mode solver — verdicts, schema
// counts and counterexamples are unchanged, but per-schema solver effort is
// attributed by the canonical-walk rule (Unsat-subtree pruning, warm-started
// prefixes), so cached Solver stats from 1.0.0 no longer describe what the
// engine would report.
// 1.2.0: the sba-reduction automaton joins the bundled spec set; existing
// verdicts are unchanged, but the golden-hash table gains a row and mixing
// 1.1.0 caches with the grown bundle would leave sba entries unpinned.
const EngineVersion = "1.2.0"

// canonLin renders a linear expression with terms sorted by symbol *name*,
// so the form is independent of symbol-table intern order.
func canonLin(tab *expr.Table, l expr.Lin) string {
	type term struct {
		name  string
		coeff int64
	}
	terms := make([]term, 0, len(l.Coeffs))
	for s, c := range l.Coeffs {
		if c == 0 {
			continue
		}
		terms = append(terms, term{tab.Name(s), c})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].name < terms[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "%d", l.Const)
	for _, t := range terms {
		fmt.Fprintf(&b, "%+d*%s", t.coeff, t.name)
	}
	return b.String()
}

func canonConstraint(tab *expr.Table, c expr.Constraint) string {
	return canonLin(tab, c.L) + " " + c.Op.String() + " 0"
}

func canonConstraints(tab *expr.Table, cs []expr.Constraint) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = canonConstraint(tab, c)
	}
	return strings.Join(parts, "; ")
}

// canonLocSet renders a location set with member names sorted: LocSet is a
// map, and its iteration order must never leak into a key.
func canonLocSet(a *ta.TA, s ta.LocSet) string {
	names := make([]string, 0, len(s))
	for l, in := range s {
		if in {
			names = append(names, a.Locations[l].Name)
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// CanonicalTA renders the automaton in a canonical textual form: stable
// across process runs and map iteration order, sensitive to everything the
// checker's semantics depend on (location and rule order included — rule
// indices appear in cached counterexamples).
func CanonicalTA(a *ta.TA) string {
	tab := a.Table
	names := func(syms []expr.Sym) string {
		out := make([]string, len(syms))
		for i, s := range syms {
			out[i] = tab.Name(s)
		}
		return strings.Join(out, ",")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ta %s\n", a.Name)
	fmt.Fprintf(&b, "params %s\n", names(a.Params))
	fmt.Fprintf(&b, "shared %s\n", names(a.Shared))
	fmt.Fprintf(&b, "resilience %s\n", canonConstraints(tab, a.Resilience))
	fmt.Fprintf(&b, "correct %s\n", canonLin(tab, a.CorrectCount))
	for _, l := range a.Locations {
		fmt.Fprintf(&b, "loc %s initial=%t broadcast=%v delivered=%v\n",
			l.Name, l.Initial, l.Broadcast, l.Delivered)
	}
	for _, r := range a.Rules {
		fmt.Fprintf(&b, "rule %s %s->%s switch=%t guard=[%s] update=[",
			r.Name, a.Locations[r.From].Name, a.Locations[r.To].Name,
			r.RoundSwitch, canonConstraints(tab, r.Guard))
		// Update is a map: sort increments by variable name.
		ups := make([]string, 0, len(r.Update))
		for s, d := range r.Update {
			ups = append(ups, fmt.Sprintf("%s+=%d", tab.Name(s), d))
		}
		sort.Strings(ups)
		b.WriteString(strings.Join(ups, ","))
		b.WriteString("]\n")
	}
	return b.String()
}

// CanonicalQuery renders the query in a canonical textual form over the
// automaton's location and symbol names.
func CanonicalQuery(a *ta.TA, q *spec.Query) string {
	tab := a.Table
	locNames := func(ls []ta.LocID) string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = a.Locations[l].Name
		}
		return strings.Join(out, ",")
	}
	sets := func(ss []ta.LocSet) string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = canonLocSet(a, s)
		}
		return strings.Join(out, ";")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query %s kind=%s\n", q.Name, q.Kind)
	fmt.Fprintf(&b, "init_empty %s\n", locNames(q.InitEmpty))
	fmt.Fprintf(&b, "global_empty %s\n", locNames(q.GlobalEmpty))
	fmt.Fprintf(&b, "visit %s\n", sets(q.VisitNonempty))
	fmt.Fprintf(&b, "final_shared %s\n", canonConstraints(tab, q.FinalShared))
	fmt.Fprintf(&b, "final_nonempty %s\n", sets(q.FinalNonempty))
	for _, j := range q.Justice {
		fmt.Fprintf(&b, "justice %s trigger=[%s] loc=%s\n",
			j.Name, canonConstraints(tab, j.Trigger), a.Locations[j.Loc].Name)
	}
	if q.RelaxResilience != nil {
		fmt.Fprintf(&b, "relax_resilience %s\n", canonConstraints(tab, q.RelaxResilience))
	}
	return b.String()
}

// Config is the slice of the engine configuration that participates in a
// cache key: every option that can change a deterministic result field.
// Workers is deliberately absent (results are deterministic at any count)
// and so is Timeout (budget outcomes are never cached, and non-budget
// results do not depend on the wall clock).
type Config struct {
	Mode        string
	MaxSchemas  int
	MaxSplits   int
	ExtraPasses int
}

// ConfigOf extracts the key-relevant configuration from resolved schema
// options (use schema.Engine.Opts(), which has the defaults applied).
func ConfigOf(o schema.Options) Config {
	return Config{
		Mode:        o.Mode.String(),
		MaxSchemas:  o.MaxSchemas,
		MaxSplits:   o.MaxSplits,
		ExtraPasses: o.ExtraPasses,
	}
}

func (c Config) canon() string {
	return fmt.Sprintf("mode %s max_schemas %d max_splits %d extra_passes %d\n",
		c.Mode, c.MaxSchemas, c.MaxSplits, c.ExtraPasses)
}

// Key derives the content address of one (automaton, query, configuration,
// engine version) quadruple: the hex SHA-256 of the canonical serialization.
// The automaton must be the one-round form the engine actually checks
// (schema.Engine.TA()).
func Key(a *ta.TA, q *spec.Query, cfg Config, engineVersion string) string {
	h := sha256.New()
	fmt.Fprintf(h, "vcache/1\nengine %s\n", engineVersion)
	io.WriteString(h, cfg.canon())
	io.WriteString(h, CanonicalTA(a))
	io.WriteString(h, CanonicalQuery(a, q))
	return hex.EncodeToString(h.Sum(nil))
}

// TAHash is the canonical structural hash of one automaton alone, the
// quantity pinned by the golden-hash test: it must only change together
// with an EngineVersion bump.
func TAHash(a *ta.TA) string {
	h := sha256.New()
	io.WriteString(h, "vcache/1\n")
	io.WriteString(h, CanonicalTA(a))
	return hex.EncodeToString(h.Sum(nil))
}

// ParseOutcome inverts spec.Outcome.Label (accepting the long budget form
// too).
func ParseOutcome(s string) (spec.Outcome, error) {
	switch s {
	case "holds":
		return spec.Holds, nil
	case "violated":
		return spec.Violated, nil
	case "budget", "budget-exceeded":
		return spec.Budget, nil
	default:
		return 0, fmt.Errorf("vcache: unknown outcome %q", s)
	}
}
