package ltl

import (
	"io/fs"
	"strings"
	"testing"

	"repro/specs"
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
		"a: locA == 0 && b: (locB == 0 || x < T + 1) && !(c: locC != 0)",
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
	files, err := fs.Glob(specs.FS, "*.ltl")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		f.Add(shippedSpec(f, file))
	}
	f.Add(":;:;")
	f.Add("p: <>[](a: locA == 0 && b: (locB == 0 || x < T + 1) && locC == 0) -> <>(locA == 0);")
	f.Add("p: <>[](a: b: locA == 0 && a: locB == 0) -> <>(a: locA == 0);")
	f.Add("BV-Just0: locA == 0; a-1-b: locA == 0; a - b: locA == 0; a-: locA == 0;")
	f.Add("p: locA == 0 resilience N >= 3 * T + 1, T >= F, F == 0;")
	f.Add("p: locA == 0 resilience; q: locA == 0 resilience N > 1,;")
	f.Fuzz(func(t *testing.T, src string) {
		pf, err := ParseFile(src)
		if err != nil {
			return
		}
		if len(pf.Names) != len(pf.Formulas) {
			t.Fatalf("names/formulas mismatch: %d vs %d", len(pf.Names), len(pf.Formulas))
		}
		for name, atoms := range pf.Resilience {
			if pf.Formulas[name] == nil || len(atoms) == 0 {
				t.Fatalf("resilience clause %v of %q without a property or a comparison", atoms, name)
			}
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
