package taformat_test

import (
	"testing"

	"repro/internal/taformat"
	"repro/specs"
)

// FuzzParse checks that the automaton parser never panics and that accepted
// automata survive a render/parse round trip.
func FuzzParse(f *testing.F) {
	for _, file := range []string{"bvbroadcast.ta", "simplified.ta"} {
		src, err := specs.FS.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("automaton x { parameters n,t,f; correct n - f; initial A; }")
	f.Add("automaton x { }")
	f.Add("{}{}{}")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := taformat.Parse(src)
		if err != nil {
			return
		}
		text, err := taformat.Format(a)
		if err != nil {
			t.Fatalf("accepted automaton fails to render: %v", err)
		}
		b, err := taformat.Parse(text)
		if err != nil {
			t.Fatalf("rendering does not reparse: %v\n%s", err, text)
		}
		if err := equivalent(a, b); err != nil {
			t.Fatalf("round trip not equivalent: %v", err)
		}
	})
}
