package ltl

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/taformat"
	"repro/internal/vcache"
	"repro/specs"
)

// shippedTA parses an automaton file under specs/.
func shippedTA(tb testing.TB, name string) *ta.TA {
	tb.Helper()
	a, err := taformat.Parse(shippedSpec(tb, name))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// shippedSpec returns the text of a property file under specs/.
func shippedSpec(tb testing.TB, name string) string {
	tb.Helper()
	src, err := specs.FS.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("<>[]( locV0 == 0 && b0 < T + 1 ) -> x != 2*y; // c\n/* block */ a:b<=1;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != tokEOF {
			texts = append(texts, tk.Text)
		}
	}
	want := "<> [] ( locV0 == 0 && b0 < T + 1 ) -> x != 2 * y ; a : b <= 1 ;"
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("tokens = %q\nwant     %q", got, want)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("a @ b"); err == nil {
		t.Error("expected error for @")
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestParseFormulaShapes(t *testing.T) {
	cases := []string{
		"locA == 0",
		"<>(locA != 0) -> [](locB == 0)",
		"[]( a0 >= N - T - F -> <>(locA == 0) )",
		"<>[]( (locA == 0 || x < T + 1) && locB == 0 ) -> <>(locC == 0)",
		"!(locA == 0) || locB != 0 && locC == 0",
	}
	for _, src := range cases {
		f, err := ParseFormula(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		// Round-trip: the rendering must parse again to the same rendering.
		f2, err := ParseFormula(f.String())
		if err != nil {
			t.Errorf("%q: reparse of %q: %v", src, f.String(), err)
			continue
		}
		if f.String() != f2.String() {
			t.Errorf("%q: not stable: %q vs %q", src, f.String(), f2.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := ParseFormula("locA == 0 && locB == 0 || locC == 0 -> locD == 0")
	if err != nil {
		t.Fatal(err)
	}
	// -> binds loosest, || looser than &&.
	b, ok := f.(Binary)
	if !ok || b.Op != OpImplies {
		t.Fatalf("top = %v, want implication", f)
	}
	l, ok := b.L.(Binary)
	if !ok || l.Op != OpOr {
		t.Fatalf("premise = %v, want ||", b.L)
	}
	if ll, ok := l.L.(Binary); !ok || ll.Op != OpAnd {
		t.Fatalf("left of || = %v, want &&", l.L)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"locA ==",
		"(locA == 0",
		"locA == 0 &&",
		"<> -> locA == 0",
		"locA = 0",
	}
	for _, src := range bad {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestParseFile(t *testing.T) {
	pf, err := ParseFile("p1: locA == 0; p2: <>(locB != 0) -> [](locA == 0);")
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Names) != 2 || pf.Names[0] != "p1" || pf.Names[1] != "p2" {
		t.Errorf("names = %v", pf.Names)
	}
	if _, err := ParseFile("p1: locA == 0; p1: locA == 0;"); err == nil {
		t.Error("expected duplicate-name error")
	}
	if _, err := ParseFile("p1 locA == 0;"); err == nil {
		t.Error("expected missing-colon error")
	}
}

// wantQuery is the expected compilation of one property, written by
// location and variable names so that it does not depend on location ids.
type wantQuery struct {
	name        string
	kind        spec.Kind
	initEmpty   []string
	globalEmpty []string
	visit       [][]string
	final       [][]string
	finalShared []string
}

// checkQuery compares a compiled query with its expected shape.
func checkQuery(t *testing.T, a *ta.TA, q spec.Query, w wantQuery) {
	t.Helper()
	if q.Name != w.name {
		t.Errorf("query %s, want %s", q.Name, w.name)
		return
	}
	if q.Kind != w.kind {
		t.Errorf("%s: kind %v, want %v", w.name, q.Kind, w.kind)
	}
	ids := func(names []string) []ta.LocID {
		var out []ta.LocID
		for _, n := range names {
			l, err := a.LocByName(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, l)
		}
		return out
	}
	sets := func(groups [][]string) []ta.LocSet {
		var out []ta.LocSet
		for _, g := range groups {
			s, err := a.LocSetByName(g...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}
	if want := ids(w.initEmpty); !reflect.DeepEqual(q.InitEmpty, want) {
		t.Errorf("%s: InitEmpty %v, want %v", w.name, q.InitEmpty, want)
	}
	if want := ids(w.globalEmpty); !reflect.DeepEqual(q.GlobalEmpty, want) {
		t.Errorf("%s: GlobalEmpty %v, want %v", w.name, q.GlobalEmpty, want)
	}
	if want := sets(w.visit); !reflect.DeepEqual(q.VisitNonempty, want) {
		t.Errorf("%s: VisitNonempty %v, want %v", w.name, q.VisitNonempty, want)
	}
	if want := sets(w.final); !reflect.DeepEqual(q.FinalNonempty, want) {
		t.Errorf("%s: FinalNonempty %v, want %v", w.name, q.FinalNonempty, want)
	}
	var shared []string
	for _, c := range q.FinalShared {
		shared = append(shared, c.String(a.Table))
	}
	if !reflect.DeepEqual(shared, w.finalShared) {
		t.Errorf("%s: FinalShared %q, want %q", w.name, shared, w.finalShared)
	}
	if q.RelaxResilience != nil {
		t.Errorf("%s: unexpected resilience clause %+v", w.name, q.RelaxResilience)
	}
}

// The shipped bv-broadcast properties compile to the Section 3.2 queries:
// justification as a safety query on the delivery locations, obligation,
// uniformity and termination as liveness queries under the automaton's
// reliable-communication justice.
func TestBVSpecParsesAndCompiles(t *testing.T) {
	a := shippedTA(t, "bvbroadcast.ta")
	pf, err := ParseFile(shippedSpec(t, "bvbroadcast.ltl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Names) != 7 {
		t.Fatalf("parsed %d properties, want 7", len(pf.Names))
	}
	qs, err := CompileFile(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	without := [][]string{
		{"V0", "V1", "B0", "B1", "B01", "C1", "CB1"},
		{"V0", "V1", "B0", "B1", "B01", "C0", "CB0"},
	}
	delivered := [][]string{{"C0", "CB0", "C01"}, {"C1", "CB1", "C01"}}
	want := []wantQuery{
		{name: "BV-Just0", kind: spec.Safety, initEmpty: []string{"V0"}, visit: delivered[:1]},
		{name: "BV-Obl0", kind: spec.Liveness, final: without[:1], finalShared: []string{"-t + b0 - 1 >= 0"}},
		{name: "BV-Unif0", kind: spec.Liveness, visit: delivered[:1], final: without[:1]},
		{name: "BV-Just1", kind: spec.Safety, initEmpty: []string{"V1"}, visit: delivered[1:]},
		{name: "BV-Obl1", kind: spec.Liveness, final: without[1:], finalShared: []string{"-t + b1 - 1 >= 0"}},
		{name: "BV-Unif1", kind: spec.Liveness, visit: delivered[1:], final: without[1:]},
		{name: "BV-Term", kind: spec.Liveness, final: [][]string{{"V0", "V1", "B0", "B1", "B01"}}},
	}
	if len(qs) != len(want) {
		t.Fatalf("compiled %d queries, want %d", len(qs), len(want))
	}
	justice := a.DefaultJustice()
	for i, w := range want {
		checkQuery(t, a, qs[i], w)
		switch w.kind {
		case spec.Safety:
			if len(qs[i].Justice) != 0 {
				t.Errorf("%s: safety query has %d justice requirements", w.name, len(qs[i].Justice))
			}
		case spec.Liveness:
			if !reflect.DeepEqual(qs[i].Justice, justice) {
				t.Errorf("%s: justice differs from the automaton's default justice", w.name)
			}
		}
	}
}

// The shipped simplified-consensus properties compile to the Section 5
// queries, and the Appendix F premise of SRoundTerm to its 23 labelled
// justice requirements in premise order.
func TestSimplifiedSpecParsesAndCompiles(t *testing.T) {
	a := shippedTA(t, "simplified.ta")
	pf, err := ParseFile(shippedSpec(t, "simplified.ltl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Names) != 9 {
		t.Fatalf("parsed %d properties, want 9", len(pf.Names))
	}
	qs, err := CompileFile(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	want := []wantQuery{
		{name: "Inv1_0", kind: spec.Safety, visit: [][]string{{"D0"}, {"D1", "E1x"}}},
		{name: "Inv1_1", kind: spec.Safety, visit: [][]string{{"D1"}, {"D0", "E0x"}}},
		{name: "Inv2_0", kind: spec.Safety, initEmpty: []string{"V0"}, visit: [][]string{{"D0", "E0x"}}},
		{name: "Inv2_1", kind: spec.Safety, initEmpty: []string{"V1"}, visit: [][]string{{"D1", "E1x"}}},
		{name: "SRoundTerm", kind: spec.Liveness, final: [][]string{{
			"V0", "V1", "M", "M0", "M1", "M01", "E0", "E1", "D1",
			"V0x", "V1x", "Mx", "M0x", "M1x", "M01x",
		}}},
		{name: "Dec_0", kind: spec.Safety, initEmpty: []string{"V0"}, visit: [][]string{{"E0", "E1"}}},
		{name: "Dec_1", kind: spec.Safety, initEmpty: []string{"V1"}, visit: [][]string{{"E0x", "E1x"}}},
		{name: "Good_0", kind: spec.Safety, globalEmpty: []string{"M0"}, visit: [][]string{{"D0", "E0x"}}},
		{name: "Good_1", kind: spec.Safety, globalEmpty: []string{"M1x"}, visit: [][]string{{"E1x"}}},
	}
	if len(qs) != len(want) {
		t.Fatalf("compiled %d queries, want %d", len(qs), len(want))
	}
	for i, w := range want {
		checkQuery(t, a, qs[i], w)
		if w.kind == spec.Safety && len(qs[i].Justice) != 0 {
			t.Errorf("%s: safety query has %d justice requirements", w.name, len(qs[i].Justice))
		}
	}

	// Each requirement: its label, the location that must drain and the
	// threshold that triggers it (empty: always triggered).
	type wantJustice struct{ name, loc, trigger string }
	wantJ := []wantJustice{
		{"start_V0", "V0", ""},
		{"start_V1", "V1", ""},
		{"bv_term", "M", ""},
		{"bv_obl0", "M1", "-t + bvb0 - 1 >= 0"},
		{"bv_obl1", "M0", "-t + bvb1 - 1 >= 0"},
		{"bv_unif0", "M1", "a0 - 1 >= 0"},
		{"bv_unif1", "M0", "a1 - 1 >= 0"},
		{"aux0", "M0", "-n + t + f + a0 >= 0"},
		{"aux1", "M1", "-n + t + f + a1 >= 0"},
		{"aux01", "M01", "-n + t + f + a0 + a1 >= 0"},
		{"start_V0x", "V0x", ""},
		{"start_V1x", "V1x", ""},
		{"bv_termx", "Mx", ""},
		{"bv_obl0x", "M1x", "-t + bvb0x - 1 >= 0"},
		{"bv_obl1x", "M0x", "-t + bvb1x - 1 >= 0"},
		{"bv_unif0x", "M1x", "a0x - 1 >= 0"},
		{"bv_unif1x", "M0x", "a1x - 1 >= 0"},
		{"aux0x", "M0x", "-n + t + f + a0x >= 0"},
		{"aux1x", "M1x", "-n + t + f + a1x >= 0"},
		{"aux01x", "M01x", "-n + t + f + a0x + a1x >= 0"},
		{"advance_E0", "E0", ""},
		{"advance_E1", "E1", ""},
		{"advance_D1", "D1", ""},
	}
	var got []wantJustice
	for _, j := range qs[4].Justice {
		var trig []string
		for _, c := range j.Trigger {
			trig = append(trig, c.String(a.Table))
		}
		got = append(got, wantJustice{j.Name, a.Locations[j.Loc].Name, strings.Join(trig, " && ")})
	}
	if !reflect.DeepEqual(got, wantJ) {
		t.Errorf("SRoundTerm justice:\n got %v\nwant %v", got, wantJ)
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	a := shippedTA(t, "bvbroadcast.ta")
	bad := []string{
		"locV0 != 0",                         // bare atom
		"[](locV0 == 0) -> <>[](locC0 == 0)", // nested temporal conclusion
		"<>(b0 >= 1) -> [](locC0 == 0)",      // non-location witness
		"[](locNOPE == 0) -> [](locC0 == 0)",
	}
	for _, src := range bad {
		f, err := ParseFormula(src)
		if err != nil {
			t.Fatalf("%q should parse: %v", src, err)
		}
		if _, err := Compile("bad", f, a); err == nil {
			t.Errorf("%q: expected compile error", src)
		}
	}
}

// compileFile parses and compiles a property file, failing the test on any
// error.
func compileFile(t *testing.T, src string, a *ta.TA) []spec.Query {
	t.Helper()
	pf, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := CompileFile(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// A [] premise over two locations compiles to one query, not one of two
// orders picked by map iteration, so it has one cache key; its locations
// keep the order the premise names them in.
func TestPremiseOrderDeterministic(t *testing.T) {
	a := shippedTA(t, "sba.ta")
	const src = "Quiet_0: [](locL1 == 0 && locL01 == 0) -> [](locE1 == 0);"
	eng, err := schema.New(a, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vcache.ConfigOf(eng.Opts())
	keys := make(map[string]bool)
	for range 200 {
		q := compileFile(t, src, a)[0]
		keys[vcache.Key(eng.TA(), &q, cfg, vcache.EngineVersion)] = true
	}
	if len(keys) != 1 {
		t.Fatalf("200 compiles gave %d distinct cache keys, want 1", len(keys))
	}
	q := compileFile(t, src, a)[0]
	l1, _ := a.LocByName("L1")
	l01, _ := a.LocByName("L01")
	if want := []ta.LocID{l1, l01}; !reflect.DeepEqual(q.GlobalEmpty, want) {
		t.Errorf("GlobalEmpty = %v, want %v (the premise's order)", q.GlobalEmpty, want)
	}
}

// Labelled <>[] conjuncts name their justice requirements, in premise
// order; unlabelled ones are named by position.
func TestJusticeLabels(t *testing.T) {
	a := shippedTA(t, "simplified.ta")
	const goal = "<>(locV0 == 0 && locV1 == 0 && locM == 0 && locM0 == 0 && locM1 == 0 && locM01 == 0 && " +
		"locE0 == 0 && locE1 == 0 && locD1 == 0 && locV0x == 0 && locV1x == 0 && locMx == 0 && " +
		"locM0x == 0 && locM1x == 0 && locM01x == 0)"
	q := compileFile(t, "p: <>[](aux1: (locM1 == 0 || a1 < N - T - F) && locM == 0 && "+
		"aux0: (locM0 == 0 || a0 < N - T - F)) -> "+goal+";", a)[0]
	var names []string
	for _, j := range q.Justice {
		names = append(names, j.Name)
	}
	if want := []string{"aux1", "justice_1", "aux0"}; !reflect.DeepEqual(names, want) {
		t.Errorf("justice names %v, want %v", names, want)
	}
	for _, bad := range []string{
		"p: <>[](x: locM == 0 && x: locE0 == 0) -> " + goal + ";",   // one label twice
		"p: <>[](x: (locM == 0 && locE0 == 0)) -> " + goal + ";",    // a label over a conjunction
		"p: <>[](locM1 == 0 || x: a1 < N - T - F) -> " + goal + ";", // a label inside a disjunction
		"p: [](x: locV0 == 0) -> [](locD0 == 0);",                   // a label outside <>[]
		"p: x: <>(locD0 != 0) -> [](locD1 == 0);",                   // a label on the property
	} {
		pf, err := ParseFile(bad)
		if err != nil {
			t.Errorf("%q should parse: %v", bad, err)
			continue
		}
		if _, err := CompileFile(pf, a); err == nil {
			t.Errorf("%q: expected compile error", bad)
		}
	}
}

// Property names may join identifiers and numbers with '-', written with
// no space around it.
func TestPropertyNamesWithDashes(t *testing.T) {
	pf, err := ParseFile("BV-Just0: locA == 0; Inv1_0-no-resilience: locA == 0; a-1: locA == 0;")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BV-Just0", "Inv1_0-no-resilience", "a-1"}; !reflect.DeepEqual(pf.Names, want) {
		t.Errorf("names = %v, want %v", pf.Names, want)
	}
	for _, bad := range []string{"BV - Just0: locA == 0;", "BV -Just0: locA == 0;", "BV-: locA == 0;", "-BV: locA == 0;"} {
		if _, err := ParseFile(bad); err == nil {
			t.Errorf("%q: expected parse error", bad)
		}
	}
}

// A resilience clause compiles, in order, to the property's replacement
// resilience condition; `==` stays an equality.
func TestResilienceClause(t *testing.T) {
	a := shippedTA(t, "bosco.ta")
	qs := compileFile(t, "p: <>(locD0 != 0) -> [](locD1 == 0) resilience N > 5 * T, F == 0;\n"+
		"q: <>(locD0 != 0) -> [](locD1 == 0);", a)
	n, tt, f := a.Params[0], a.Params[1], a.Params[2]
	bound, err := expr.LinOf(-1, expr.LinTerm{Sym: n, Coeff: 1}, expr.LinTerm{Sym: tt, Coeff: -5})
	if err != nil {
		t.Fatal(err)
	}
	want := []expr.Constraint{
		expr.GEZero(bound),
		expr.EQZero(expr.Var(f)),
	}
	if !reflect.DeepEqual(qs[0].RelaxResilience, want) {
		t.Errorf("resilience = %+v, want %+v", qs[0].RelaxResilience, want)
	}
	if qs[1].RelaxResilience != nil {
		t.Errorf("a property without a clause has resilience %+v", qs[1].RelaxResilience)
	}
	for _, bad := range []string{
		"p: <>(locD0 != 0) -> [](locD1 == 0) resilience x0 >= 1;",     // a shared variable
		"p: <>(locD0 != 0) -> [](locD1 == 0) resilience locD0 == 0;",  // a location
		"p: <>(locD0 != 0) -> [](locD1 == 0) resilience N >= 1, ;",    // a dangling comma
		"p: <>(locD0 != 0) -> [](locD1 == 0) resilience;",             // no comparison
		"p: <>(locD0 != 0) -> [](locD1 == 0) resilience N > 1 T > 0;", // no comma
	} {
		pf, err := ParseFile(bad)
		if err == nil {
			_, err = CompileFile(pf, a)
		}
		if err == nil {
			t.Errorf("%q: expected an error", bad)
		}
	}
}
