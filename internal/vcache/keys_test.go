package vcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
)

// keyCase is one automaton with the queries stated over it.
type keyCase struct {
	name string
	a    *ta.TA
	qs   []spec.Query
}

// bundledCases returns every bundled automaton with all of its queries
// (compiled from its property file), plus the relaxed-resilience
// counterexample query.
func bundledCases(t *testing.T) []keyCase {
	t.Helper()
	var out []keyCase
	add := func(name string, a *ta.TA, qs []spec.Query, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, keyCase{name, a, qs})
	}
	for _, m := range models.Bundled {
		a := m.TA()
		qs, err := m.Queries(a)
		add(m.Name, a, qs, err)
	}
	simp := models.SimplifiedConsensus()
	ce, err := models.Inv1CounterexampleQuery(simp)
	add("simplified/ce", simp, []spec.Query{ce}, err)
	return out
}

// randomCase builds a random automaton and a handful of random queries that
// between them set every field the canonical form renders. Shared names
// include characters that sort below '+', so the update list's order by
// rendered text and by name alone would differ.
func randomCase(rng *rand.Rand, name string) (keyCase, error) {
	b := ta.NewBuilder(name)
	pool := []string{"x", "x!", "x1", "y", "y y", "b0"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	shared := make([]expr.Sym, 2+rng.Intn(3))
	for i := range shared {
		shared[i] = b.Shared(pool[i])
	}
	nLocs := 4 + rng.Intn(4)
	locs := make([]ta.LocID, nLocs)
	for i := range locs {
		var opts []ta.LocOpt
		if i < 2 {
			opts = append(opts, ta.Initial())
		}
		locs[i] = b.Loc(fmt.Sprintf("L%d", i), opts...)
	}
	thresholds := []expr.Lin{
		b.Lin(1),
		b.Lin(1, ta.LinTerm{Coeff: 1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
		b.Lin(-3, ta.LinTerm{Coeff: 2, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
		b.Lin(0, ta.LinTerm{Coeff: 1, Sym: b.N()}, ta.LinTerm{Coeff: -1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
	}
	guard := func() expr.Constraint {
		return b.GeThreshold(shared[rng.Intn(len(shared))], thresholds[rng.Intn(len(thresholds))])
	}
	nRules := nLocs + rng.Intn(2*nLocs)
	for r := 0; r < nRules; r++ {
		from := rng.Intn(nLocs - 1)
		to := from + 1 + rng.Intn(nLocs-from-1)
		var opts []ta.RuleOpt
		for g := rng.Intn(3); g > 0; g-- {
			opts = append(opts, ta.Guarded(guard()))
		}
		for u := rng.Intn(4); u > 0; u-- {
			opts = append(opts, ta.Inc(shared[rng.Intn(len(shared))]))
		}
		b.Rule(fmt.Sprintf("r%d", r), locs[from], locs[to], opts...)
	}
	a, err := b.Build()
	if err != nil {
		return keyCase{}, err
	}
	set := func() ta.LocSet {
		s := ta.LocSet{}
		for j := rng.Intn(3); j >= 0; j-- {
			s[ta.LocID(rng.Intn(nLocs))] = rng.Intn(4) > 0
		}
		return s
	}
	c := keyCase{name: name, a: a}
	for k := 0; k < 3; k++ {
		q := spec.Query{Name: fmt.Sprintf("q%d", k), Kind: spec.Kind(rng.Intn(2))}
		for j := rng.Intn(3); j > 0; j-- {
			q.InitEmpty = append(q.InitEmpty, ta.LocID(rng.Intn(nLocs)))
			q.GlobalEmpty = append(q.GlobalEmpty, ta.LocID(rng.Intn(nLocs)))
			q.VisitNonempty = append(q.VisitNonempty, set())
			q.FinalNonempty = append(q.FinalNonempty, set())
			q.FinalShared = append(q.FinalShared, guard())
		}
		if q.Kind == spec.Liveness {
			q.Justice = a.DefaultJustice()
		}
		if rng.Intn(3) == 0 {
			q.RelaxResilience = []expr.Constraint{guard(), {L: thresholds[rng.Intn(len(thresholds))], Op: expr.EQ}}
		}
		c.qs = append(c.qs, q)
	}
	return c, nil
}

func randomCases(t *testing.T, want int) []keyCase {
	t.Helper()
	var out []keyCase
	for seed := int64(0); len(out) < want && seed < 1000; seed++ {
		c, err := randomCase(rand.New(rand.NewSource(seed)), fmt.Sprintf("rand%d", seed))
		if err == nil {
			out = append(out, c)
		}
	}
	if len(out) < want {
		t.Fatalf("only %d valid random automata generated", len(out))
	}
	return out
}

// The strconv renderer must reproduce the fmt one byte for byte, on the
// automata as written and in the one-round form keys are derived from, and
// Keys must agree with Key (and with the reference hash) query by query.
func TestCanonicalMatchesReference(t *testing.T) {
	cases := append(bundledCases(t), randomCases(t, 50)...)
	for _, c := range cases {
		forms := []*ta.TA{c.a}
		if eng, err := schema.New(c.a, schema.Options{}); err == nil {
			forms = append(forms, eng.TA())
		} else if !strings.HasPrefix(c.name, "rand") {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, a := range forms {
			if got, want := CanonicalTA(a), refCanonicalTA(a); got != want {
				t.Fatalf("%s: canonical automaton differs from the reference:\n got %q\nwant %q", c.name, got, want)
			}
			if got, want := TAHash(a), refTAHash(a); got != want {
				t.Fatalf("%s: TAHash %s, reference %s", c.name, got, want)
			}
			for i := range c.qs {
				if got, want := CanonicalQuery(a, &c.qs[i]), refCanonicalQuery(a, &c.qs[i]); got != want {
					t.Fatalf("%s/%s: canonical query differs from the reference:\n got %q\nwant %q", c.name, c.qs[i].Name, got, want)
				}
			}
			for _, cfg := range []Config{{Mode: "staged", MaxSchemas: 100_000, MaxSplits: 1 << 16, ExtraPasses: 1}, {Mode: "full", MaxSchemas: 7}} {
				keys := Keys(a, c.qs, cfg, EngineVersion)
				if len(keys) != len(c.qs) {
					t.Fatalf("%s: %d keys for %d queries", c.name, len(keys), len(c.qs))
				}
				for i := range c.qs {
					one := Key(a, &c.qs[i], cfg, EngineVersion)
					ref := refKey(a, &c.qs[i], cfg, EngineVersion)
					if keys[i] != one || one != ref {
						t.Fatalf("%s/%s: Keys[%d]=%s Key=%s reference=%s", c.name, c.qs[i].Name, i, keys[i], one, ref)
					}
				}
			}
		}
	}
}
