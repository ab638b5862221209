package ltl

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/specs"
)

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

func TestBVSpecParsesAndCompiles(t *testing.T) {
	a := models.BVBroadcast()
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
	byName := make(map[string]spec.Query)
	for _, q := range qs {
		byName[q.Name] = q
	}

	// Compare against the programmatic queries of the models package.
	mqs, err := models.BVQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{
		"BV-Just0": "bv_just0", "BV-Just1": "bv_just1",
		"BV-Obl0": "bv_obl0", "BV-Obl1": "bv_obl1",
		"BV-Unif0": "bv_unif0", "BV-Unif1": "bv_unif1",
		"BV-Term": "bv_term",
	}
	for _, mq := range mqs {
		lq, ok := byName[pairs[mq.Name]]
		if !ok {
			t.Errorf("no compiled property for %s", mq.Name)
			continue
		}
		if lq.Kind != mq.Kind {
			t.Errorf("%s: kind %v vs %v", mq.Name, lq.Kind, mq.Kind)
		}
		if !sameLocSets(lq.VisitNonempty, mq.VisitNonempty) {
			t.Errorf("%s: VisitNonempty differs: %v vs %v", mq.Name, lq.VisitNonempty, mq.VisitNonempty)
		}
		if !sameLocSets(lq.FinalNonempty, mq.FinalNonempty) {
			t.Errorf("%s: FinalNonempty differs: %v vs %v", mq.Name, lq.FinalNonempty, mq.FinalNonempty)
		}
		if !sameLocIDs(lq.InitEmpty, mq.InitEmpty) {
			t.Errorf("%s: InitEmpty differs: %v vs %v", mq.Name, lq.InitEmpty, mq.InitEmpty)
		}
		if len(lq.FinalShared) != len(mq.FinalShared) {
			t.Errorf("%s: FinalShared count differs", mq.Name)
		} else {
			for i := range lq.FinalShared {
				if lq.FinalShared[i].String(a.Table) != mq.FinalShared[i].String(a.Table) {
					t.Errorf("%s: FinalShared[%d]: %s vs %s", mq.Name, i,
						lq.FinalShared[i].String(a.Table), mq.FinalShared[i].String(a.Table))
				}
			}
		}
		if len(lq.Justice) != len(mq.Justice) {
			t.Errorf("%s: justice count %d vs %d", mq.Name, len(lq.Justice), len(mq.Justice))
		}
	}
}

func TestSimplifiedSpecParsesAndCompiles(t *testing.T) {
	a := models.SimplifiedConsensus()
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
	byName := make(map[string]spec.Query)
	for _, q := range qs {
		byName[q.Name] = q
	}

	mqs, err := models.SimplifiedQueries(a)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{
		"Inv1_0": "inv1_0", "Inv1_1": "inv1_1",
		"Inv2_0": "inv2_0", "Inv2_1": "inv2_1",
		"SRoundTerm": "s_round_termination",
		"Dec_0":      "dec_0", "Dec_1": "dec_1",
		"Good_0": "good_0", "Good_1": "good_1",
	}
	for _, mq := range mqs {
		lq, ok := byName[pairs[mq.Name]]
		if !ok {
			t.Errorf("no compiled property for %s", mq.Name)
			continue
		}
		if lq.Kind != mq.Kind {
			t.Errorf("%s: kind %v vs %v", mq.Name, lq.Kind, mq.Kind)
		}
		if !sameLocSets(lq.VisitNonempty, mq.VisitNonempty) {
			t.Errorf("%s: VisitNonempty differs", mq.Name)
		}
		if !sameLocSets(lq.FinalNonempty, mq.FinalNonempty) {
			t.Errorf("%s: FinalNonempty differs", mq.Name)
		}
		if !sameLocIDs(lq.InitEmpty, mq.InitEmpty) || !sameLocIDs(lq.GlobalEmpty, mq.GlobalEmpty) {
			t.Errorf("%s: premise locations differ", mq.Name)
		}
		if mq.Name == "SRoundTerm" {
			// The Appendix F premise must reproduce the 23 justice
			// requirements of the programmatic model.
			if len(lq.Justice) != len(mq.Justice) {
				t.Errorf("SRoundTerm: justice count %d vs %d", len(lq.Justice), len(mq.Justice))
			}
			if !sameJustice(a, lq.Justice, mq.Justice) {
				t.Errorf("SRoundTerm: justice requirements differ")
			}
		}
	}
}

func sameLocIDs(a, b []ta.LocID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]ta.LocID(nil), a...)
	bs := append([]ta.LocID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sameLocSets(a, b []ta.LocSet) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s ta.LocSet) string {
		var ids []int
		for l := range s {
			ids = append(ids, int(l))
		}
		sort.Ints(ids)
		var sb strings.Builder
		for _, id := range ids {
			sb.WriteString(",")
			sb.WriteByte(byte('0' + id%10))
			sb.WriteString(strings.Repeat("#", id/10))
		}
		return sb.String()
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// sameJustice compares justice lists as multisets of (trigger,loc) pairs.
func sameJustice(a *ta.TA, x, y []ta.Justice) bool {
	key := func(j ta.Justice) string {
		var parts []string
		for _, t := range j.Trigger {
			parts = append(parts, t.String(a.Table))
		}
		sort.Strings(parts)
		return strings.Join(parts, "&") + "@" + a.Locations[j.Loc].Name
	}
	kx := make([]string, len(x))
	ky := make([]string, len(y))
	for i, j := range x {
		kx[i] = key(j)
	}
	for i, j := range y {
		ky[i] = key(j)
	}
	sort.Strings(kx)
	sort.Strings(ky)
	if len(kx) != len(ky) {
		return false
	}
	for i := range kx {
		if kx[i] != ky[i] {
			return false
		}
	}
	return true
}

func TestCompileRejectsUnsupported(t *testing.T) {
	a := models.BVBroadcast()
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
