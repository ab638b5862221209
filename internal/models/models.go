// Package models contains the six bundled threshold automata — the paper's
// binary-value broadcast (Fig. 2), naive Byzantine consensus automaton
// (Fig. 3 / Table 3) and simplified consensus automaton (Fig. 4), plus the
// Srikanth-Toueg reliable broadcast, BOSCO and the SBA* reduction — together
// with their properties rendered as counterexample queries (internal/spec)
// and fairness assumptions (Appendix F). Every automaton is parsed from its
// file under specs/, the only place it is written down; the queries are
// built here in Go.
package models

import (
	"fmt"
	"strings"

	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/taformat"
	"repro/specs"
)

// Model is one bundled automaton: the names it is requested by, the file
// under specs/ it is parsed from, and the builder of its queries.
type Model struct {
	Name    string
	Aliases []string
	File    string
	Queries func(*ta.TA) ([]spec.Query, error)
}

// TA parses the model's spec file into a fresh automaton.
func (m Model) TA() *ta.TA { return mustParse(m.File) }

// Bundled is the registry of bundled models, in the order holistic lists
// them.
var Bundled = []Model{
	{Name: "bv", Aliases: []string{"bvbroadcast"}, File: "bvbroadcast.ta", Queries: BVQueries},
	{Name: "naive", File: "naive.ta", Queries: NaiveQueries},
	{Name: "simplified", File: "simplified.ta", Queries: SimplifiedQueries},
	{Name: "strb", File: "strb.ta", Queries: STRBQueries},
	{Name: "bosco", File: "bosco.ta", Queries: BoscoQueries},
	{Name: "sba", File: "sba.ta", Queries: SBAQueries},
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
