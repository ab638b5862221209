package taformat_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/ta"
	"repro/internal/taformat"
)

// TestRoundTripModels holds the writer honest: rendering each bundled
// automaton and parsing the text back yields a deeply equal automaton,
// symbol table included, and rendering that again reproduces the text.
func TestRoundTripModels(t *testing.T) {
	for _, m := range models.Bundled {
		orig := m.TA()
		text, err := taformat.Format(orig)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		parsed, err := taformat.Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", m.Name, err, text)
		}
		if !reflect.DeepEqual(orig, parsed) {
			t.Errorf("%s: round trip not deeply equal: %v\n%s", m.Name, equivalent(orig, parsed), text)
		}
		text2, err := taformat.Format(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if text != text2 {
			t.Errorf("%s: second render differs:\n--- first\n%s\n--- second\n%s", m.Name, text, text2)
		}
	}
}

func symNames(a *ta.TA, syms []expr.Sym) string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = a.Table.Name(s)
	}
	return strings.Join(out, ",")
}

// equivalent compares two automata structurally by names and canonical
// renderings.
func equivalent(a, b *ta.TA) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if len(a.Locations) != len(b.Locations) {
		return fmt.Errorf("location count %d vs %d", len(a.Locations), len(b.Locations))
	}
	bInitial := map[string]bool{}
	seen := map[string]bool{}
	for _, l := range b.Locations {
		bInitial[l.Name] = l.Initial
		seen[l.Name] = true
	}
	for _, l := range a.Locations {
		if !seen[l.Name] {
			return fmt.Errorf("missing location %s", l.Name)
		}
		if bInitial[l.Name] != l.Initial {
			return fmt.Errorf("location %s initial flag differs", l.Name)
		}
	}
	if got, want := symNames(b, b.Params), symNames(a, a.Params); got != want {
		return fmt.Errorf("params %q vs %q", got, want)
	}
	if got, want := symNames(b, b.Shared), symNames(a, a.Shared); got != want {
		return fmt.Errorf("shared %q vs %q", got, want)
	}
	if a.CorrectCount.String(a.Table) != b.CorrectCount.String(b.Table) {
		return fmt.Errorf("correct count %q vs %q",
			a.CorrectCount.String(a.Table), b.CorrectCount.String(b.Table))
	}
	if len(a.Resilience) != len(b.Resilience) {
		return fmt.Errorf("resilience count differs")
	}
	for i := range a.Resilience {
		if a.Resilience[i].String(a.Table) != b.Resilience[i].String(b.Table) {
			return fmt.Errorf("resilience %d: %q vs %q", i,
				a.Resilience[i].String(a.Table), b.Resilience[i].String(b.Table))
		}
	}
	if len(a.Rules) != len(b.Rules) {
		return fmt.Errorf("rule count %d vs %d", len(a.Rules), len(b.Rules))
	}
	for i, ra := range a.Rules {
		rb := b.Rules[i]
		if ra.Name != rb.Name || ra.RoundSwitch != rb.RoundSwitch {
			return fmt.Errorf("rule %d header differs: %s vs %s", i, ra.Name, rb.Name)
		}
		if a.Locations[ra.From].Name != b.Locations[rb.From].Name ||
			a.Locations[ra.To].Name != b.Locations[rb.To].Name {
			return fmt.Errorf("rule %s endpoints differ", ra.Name)
		}
		if a.GuardString(ra) != b.GuardString(rb) {
			return fmt.Errorf("rule %s guard %q vs %q", ra.Name, a.GuardString(ra), b.GuardString(rb))
		}
		if len(ra.Update) != len(rb.Update) {
			return fmt.Errorf("rule %s update count differs", ra.Name)
		}
		for s, d := range ra.Update {
			sb := b.Table.Lookup(a.Table.Name(s))
			if sb == expr.NoSym || rb.Update[sb] != d {
				return fmt.Errorf("rule %s update of %s differs", ra.Name, a.Table.Name(s))
			}
		}
	}
	return nil
}

func TestParseMinimal(t *testing.T) {
	src := `
automaton toy {
  parameters n, t, f;
  resilience n >= 3*t + 1, t >= f, f >= 0, t >= 1;
  correct n - f;
  shared x;
  initial A;
  locations B, C;
  rule r1: A -> B do x += 1;
  rule r2: B -> C when x >= t + 1 - f;
  self C;
  switch rs: C ~> A;
}
`
	a, err := taformat.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "toy" || len(a.Locations) != 3 || len(a.Rules) != 4 {
		t.Errorf("parsed shape: %s", a)
	}
	if got := a.GuardString(a.Rules[1]); got != "-t + f + x - 1 >= 0" {
		t.Errorf("guard = %q", got)
	}
	if !a.Rules[3].RoundSwitch {
		t.Error("switch rule not marked")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing automaton", "foo x {}"},
		{"unknown statement", "automaton a { frobnicate x; }"},
		{"unknown location", "automaton a { parameters n,t,f; correct n - f; initial A; rule r: A -> B; }"},
		{"duplicate location", "automaton a { parameters n,t,f; initial A; locations A; }"},
		{"guarded switch", `automaton a { parameters n,t,f; correct n - f; shared x;
			initial A; locations B; switch s: A ~> B when x >= 1; }`},
		{"update undeclared", `automaton a { parameters n,t,f; correct n - f;
			initial A; locations B; rule r: A -> B do y += 1; }`},
		{"trailing garbage", "automaton a { parameters n,t,f; correct n - f; initial A; } extra"},
		{"missing semicolon", "automaton a { parameters n,t,f }"},
		{"falling guard rejected by validate", `automaton a { parameters n,t,f; correct n - f; shared x;
			initial A; locations B; rule r: A -> B when 1 >= x; }`},
	}
	for _, c := range cases {
		if _, err := taformat.Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestParsedModelVerifies: a parsed automaton is a first-class citizen — it
// validates and exposes the same structure the checker consumes.
func TestParsedModelVerifies(t *testing.T) {
	text, err := taformat.Format(models.BVBroadcast())
	if err != nil {
		t.Fatal(err)
	}
	a, err := taformat.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	size := a.Size()
	if size.Locations != 10 || size.Rules != 19 || size.UniqueGuards != 4 {
		t.Errorf("parsed bv-broadcast size = %+v", size)
	}
}

// TestParseRejectsEffectfulSelfLoop: a self-loop written as a plain rule
// with updates must be rejected by validation (both checkers skip
// self-loops, so effects on them would be silently unexplored).
func TestParseRejectsEffectfulSelfLoop(t *testing.T) {
	src := `automaton a {
  parameters n, t, f;
  resilience n >= 3*t + 1, t >= f, f >= 0, t >= 1;
  correct n - f;
  shared x;
  initial A;
  rule r1: A -> A do x += 1;
}`
	if _, err := taformat.Parse(src); err == nil {
		t.Error("effectful self-loop should be rejected")
	}
}

// TestParseRejectsMissingCorrect: omitting the correct clause must fail
// validation instead of verifying everything over zero processes.
func TestParseRejectsMissingCorrect(t *testing.T) {
	src := `automaton a {
  parameters n, t, f;
  resilience n >= 3*t + 1, t >= f, f >= 0, t >= 1;
  shared x;
  initial A;
  locations B;
  rule r1: A -> B do x += 1;
}`
	if _, err := taformat.Parse(src); err == nil {
		t.Error("missing correct clause should be rejected")
	}
}
