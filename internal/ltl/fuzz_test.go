package ltl

import (
	"strings"
	"testing"
)

// FuzzParseFormula checks that the parser never panics and that successful
// parses are render-stable (parse → String → parse → String is a fixpoint).
func FuzzParseFormula(f *testing.F) {
	seeds := []string{
		"locV0 == 0",
		"<>(locD0 != 0) -> [](locD1 == 0 && locE1x == 0)",
		"[]( b0 >= T + 1 -> <>( locV0 == 0 ) )",
		"<>[]( (locM1 == 0 || bvb0 < T + 1) && locM == 0 ) -> <>(locM == 0)",
		"!(locA == 0) || locB != 0",
		"a0 + a1 < N - T - F -> locM01 == 0",
		"-1 <= 2*x",
		"((((locA == 0))))",
		"<><><>locA == 0",
		"x == 0 &&",
		"/*",
		"p: q;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := ParseFormula(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := formula.String()
		again, err := ParseFormula(rendered)
		if err != nil {
			t.Fatalf("rendering %q of %q does not reparse: %v", rendered, src, err)
		}
		if again.String() != rendered {
			t.Fatalf("render not stable: %q -> %q", rendered, again.String())
		}
	})
}

// FuzzParseFile checks the property-file parser on arbitrary inputs.
func FuzzParseFile(f *testing.F) {
	f.Add("p1: locA == 0; p2: <>(locB != 0) -> [](locA == 0);")
	f.Add(shippedSpec(f, "bvbroadcast.ltl"))
	f.Add(shippedSpec(f, "simplified.ltl"))
	f.Add(":;:;")
	f.Fuzz(func(t *testing.T, src string) {
		pf, err := ParseFile(src)
		if err != nil {
			return
		}
		if len(pf.Names) != len(pf.Formulas) {
			t.Fatalf("names/formulas mismatch: %d vs %d", len(pf.Names), len(pf.Formulas))
		}
		for _, name := range pf.Names {
			if strings.TrimSpace(name) == "" {
				t.Fatal("empty property name accepted")
			}
			if pf.Formulas[name] == nil {
				t.Fatalf("nil formula for %q", name)
			}
		}
	})
}
