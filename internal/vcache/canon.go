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
	"sort"
	"strconv"

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

// canon appends canonical text to one buffer. Symbol names are read from
// the automaton's table once, not per term.
type canon struct {
	b     []byte
	a     *ta.TA
	names []string
}

func newCanon(a *ta.TA) *canon {
	return &canon{b: make([]byte, 0, 4096), a: a, names: a.Table.Names()}
}

func (c *canon) str(s string) { c.b = append(c.b, s...) }

func (c *canon) number(v int64) { c.b = strconv.AppendInt(c.b, v, 10) }

func (c *canon) boolean(v bool) { c.b = strconv.AppendBool(c.b, v) }

func (c *canon) syms(ss []expr.Sym) {
	for i, s := range ss {
		if i > 0 {
			c.b = append(c.b, ',')
		}
		c.str(c.names[s])
	}
}

func (c *canon) locs(ls []ta.LocID) {
	for i, l := range ls {
		if i > 0 {
			c.b = append(c.b, ',')
		}
		c.str(c.a.Locations[l].Name)
	}
}

// lin renders a linear expression with terms sorted by symbol *name*, so
// the form is independent of symbol-table intern order.
func (c *canon) lin(l expr.Lin) {
	type term struct {
		name  string
		coeff int64
	}
	terms := make([]term, 0, len(l.Terms()))
	for _, t := range l.Terms() {
		terms = append(terms, term{c.names[t.Sym], t.Coeff})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].name < terms[j].name })
	c.number(l.Const)
	for _, t := range terms {
		if t.coeff > 0 {
			c.b = append(c.b, '+')
		}
		c.number(t.coeff)
		c.b = append(c.b, '*')
		c.str(t.name)
	}
}

func (c *canon) constraints(cs []expr.Constraint) {
	for i, k := range cs {
		if i > 0 {
			c.str("; ")
		}
		c.lin(k.L)
		c.b = append(c.b, ' ')
		c.str(k.Op.String())
		c.str(" 0")
	}
}

// locSet renders a location set with member names sorted: LocSet is a map,
// and its iteration order must never leak into a key.
func (c *canon) locSet(s ta.LocSet) {
	names := make([]string, 0, len(s))
	for l, in := range s {
		if in {
			names = append(names, c.a.Locations[l].Name)
		}
	}
	sort.Strings(names)
	c.b = append(c.b, '{')
	for i, n := range names {
		if i > 0 {
			c.b = append(c.b, ',')
		}
		c.str(n)
	}
	c.b = append(c.b, '}')
}

func (c *canon) locSets(ss []ta.LocSet) {
	for i, s := range ss {
		if i > 0 {
			c.b = append(c.b, ';')
		}
		c.locSet(s)
	}
}

// automaton renders the automaton: stable across process runs and map
// iteration order, sensitive to everything the checker's semantics depend on
// (location and rule order included — rule indices appear in cached
// counterexamples).
func (c *canon) automaton() {
	a := c.a
	c.str("ta ")
	c.str(a.Name)
	c.str("\nparams ")
	c.syms(a.Params)
	c.str("\nshared ")
	c.syms(a.Shared)
	c.str("\nresilience ")
	c.constraints(a.Resilience)
	c.str("\ncorrect ")
	c.lin(a.CorrectCount)
	c.b = append(c.b, '\n')
	for _, l := range a.Locations {
		c.str("loc ")
		c.str(l.Name)
		c.str(" initial=")
		c.boolean(l.Initial)
		// The fixed empty broadcast/delivered fields (the retired Table 1
		// annotation) keep the canonical text byte-identical, so every
		// golden hash and cache key holds at the same EngineVersion.
		c.str(" broadcast=[] delivered=[]\n")
	}
	var ups []string
	for _, r := range a.Rules {
		c.str("rule ")
		c.str(r.Name)
		c.b = append(c.b, ' ')
		c.str(a.Locations[r.From].Name)
		c.str("->")
		c.str(a.Locations[r.To].Name)
		c.str(" switch=")
		c.boolean(r.RoundSwitch)
		c.str(" guard=[")
		c.constraints(r.Guard)
		c.str("] update=[")
		// Update is a map: sort the rendered increments.
		ups = ups[:0]
		for s, d := range r.Update {
			ups = append(ups, c.names[s]+"+="+strconv.FormatInt(d, 10))
		}
		sort.Strings(ups)
		for i, u := range ups {
			if i > 0 {
				c.b = append(c.b, ',')
			}
			c.str(u)
		}
		c.str("]\n")
	}
}

// query renders the query over the automaton's location and symbol names.
func (c *canon) query(q *spec.Query) {
	c.str("query ")
	c.str(q.Name)
	c.str(" kind=")
	c.str(q.Kind.String())
	c.str("\ninit_empty ")
	c.locs(q.InitEmpty)
	c.str("\nglobal_empty ")
	c.locs(q.GlobalEmpty)
	c.str("\nvisit ")
	c.locSets(q.VisitNonempty)
	c.str("\nfinal_shared ")
	c.constraints(q.FinalShared)
	c.str("\nfinal_nonempty ")
	c.locSets(q.FinalNonempty)
	c.b = append(c.b, '\n')
	for _, j := range q.Justice {
		c.str("justice ")
		c.str(j.Name)
		c.str(" trigger=[")
		c.constraints(j.Trigger)
		c.str("] loc=")
		c.str(c.a.Locations[j.Loc].Name)
		c.b = append(c.b, '\n')
	}
	if q.RelaxResilience != nil {
		c.str("relax_resilience ")
		c.constraints(q.RelaxResilience)
		c.b = append(c.b, '\n')
	}
}

// CanonicalTA renders the automaton in a canonical textual form (see
// canon.automaton).
func CanonicalTA(a *ta.TA) string {
	c := newCanon(a)
	c.automaton()
	return string(c.b)
}

// CanonicalQuery renders the query in a canonical textual form over the
// automaton's location and symbol names.
func CanonicalQuery(a *ta.TA, q *spec.Query) string {
	c := newCanon(a)
	c.query(q)
	return string(c.b)
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

func (c *canon) config(cfg Config) {
	c.str("mode ")
	c.str(cfg.Mode)
	c.str(" max_schemas ")
	c.number(int64(cfg.MaxSchemas))
	c.str(" max_splits ")
	c.number(int64(cfg.MaxSplits))
	c.str(" extra_passes ")
	c.number(int64(cfg.ExtraPasses))
	c.b = append(c.b, '\n')
}

// Keys derives the content addresses of the (automaton, query, configuration,
// engine version) quadruples of every query in qs: keys[i] is the hex
// SHA-256 of the canonical serialization of qs[i]. The engine, configuration
// and automaton prefix is rendered once and shared by every query. The
// automaton must be the one-round form the engine actually checks
// (schema.Engine.TA()).
func Keys(a *ta.TA, qs []spec.Query, cfg Config, engineVersion string) []string {
	c := newCanon(a)
	c.str("vcache/1\nengine ")
	c.str(engineVersion)
	c.b = append(c.b, '\n')
	c.config(cfg)
	c.automaton()
	prefix := len(c.b)
	keys := make([]string, len(qs))
	for i := range qs {
		c.b = c.b[:prefix]
		c.query(&qs[i])
		sum := sha256.Sum256(c.b)
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

// Key is the one-query case of Keys.
func Key(a *ta.TA, q *spec.Query, cfg Config, engineVersion string) string {
	return Keys(a, []spec.Query{*q}, cfg, engineVersion)[0]
}

// TAHash is the canonical structural hash of one automaton alone, the
// quantity pinned by the golden-hash test: it must only change together
// with an EngineVersion bump.
func TAHash(a *ta.TA) string {
	c := newCanon(a)
	c.str("vcache/1\n")
	c.automaton()
	sum := sha256.Sum256(c.b)
	return hex.EncodeToString(sum[:])
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
