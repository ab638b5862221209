// Package models contains the six bundled threshold automata — the paper's
// binary-value broadcast (Fig. 2), naive Byzantine consensus automaton
// (Fig. 3 / Table 3) and simplified consensus automaton (Fig. 4), plus the
// Srikanth-Toueg reliable broadcast, BOSCO and the SBA* reduction — together
// with their properties rendered as counterexample queries (internal/spec)
// and fairness assumptions (Appendix F). Both are written down once, under
// specs/: each automaton is parsed from its .ta file, and its properties
// are compiled from the .ltl file beside it by internal/ltl.
package models

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ltl"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/taformat"
	"repro/specs"
)

// Model is one bundled automaton: the names it is requested by, the file
// under specs/ it is parsed from and the property file its queries are
// compiled from.
type Model struct {
	Name    string
	Aliases []string
	File    string
	Props   string
}

// TA parses the model's spec file into a fresh automaton.
func (m Model) TA() *ta.TA { return mustParse(m.File) }

// Queries compiles the model's property file against a: the model's own
// automaton, or a variant of it that keeps the locations and variables the
// properties name.
func (m Model) Queries(a *ta.TA) ([]spec.Query, error) { return compile(m.Props, a) }

// Bundled is the registry of bundled models, in the order holistic lists
// them.
var Bundled = []Model{
	{Name: "bv", Aliases: []string{"bvbroadcast"}, File: "bvbroadcast.ta", Props: "bvbroadcast.ltl"},
	{Name: "naive", File: "naive.ta", Props: "naive.ltl"},
	{Name: "simplified", File: "simplified.ta", Props: "simplified.ltl"},
	{Name: "strb", File: "strb.ta", Props: "strb.ltl"},
	{Name: "bosco", File: "bosco.ta", Props: "bosco.ltl"},
	{Name: "sba", File: "sba.ta", Props: "sba.ltl"},
}

// Lookup returns the bundled model requested by name or alias.
func Lookup(name string) (Model, error) {
	for _, m := range Bundled {
		if m.Name == name || slices.Contains(m.Aliases, name) {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("unknown model %q (want %s)", name, Names())
}

// Named is Lookup for a name fixed in the program: an unknown name is a
// programming error and panics.
func Named(name string) Model {
	m, err := Lookup(name)
	if err != nil {
		panic(fmt.Sprintf("models: %v", err))
	}
	return m
}

// Inv1CounterexampleQuery returns the Inv1_0 query of the simplified
// automaton with the resilience condition relaxed from n > 3t to n > 2t
// (specs/simplified-relaxed.ltl): the regime in which the paper reports
// generating a disagreement counterexample in ~4s (Section 6).
func Inv1CounterexampleQuery(a *ta.TA) (spec.Query, error) {
	qs, err := compile("simplified-relaxed.ltl", a)
	if err != nil {
		return spec.Query{}, err
	}
	return qs[0], nil
}

// Names lists the bundled model names for help and error texts:
// "bv, naive, ... or sba".
func Names() string {
	names := make([]string, len(Bundled))
	for i, m := range Bundled {
		names[i] = m.Name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// mustParse parses an embedded spec file. The files are compiled into the
// binary, so a parse error is a programming error and panics, as
// ta.Builder.MustBuild does.
func mustParse(file string) *ta.TA {
	src, err := specs.FS.ReadFile(file)
	if err != nil {
		panic(fmt.Sprintf("models: %v", err))
	}
	a, err := taformat.Parse(string(src))
	if err != nil {
		panic(fmt.Sprintf("models: specs/%s: %v", file, err))
	}
	return a
}

// compile compiles an embedded property file against a.
func compile(file string, a *ta.TA) ([]spec.Query, error) {
	src, err := specs.FS.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	pf, err := ltl.ParseFile(string(src))
	if err != nil {
		return nil, fmt.Errorf("models: specs/%s: %w", file, err)
	}
	return ltl.CompileFile(pf, a)
}
