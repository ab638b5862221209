package core

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/spec"
)

// TestHolisticVerification runs the paper's headline pipeline end to end:
// both phases verify every property and Theorem 6's conclusions follow.
func TestHolisticVerification(t *testing.T) {
	rep, err := HolisticVerification(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Inner.AllHold() {
		t.Errorf("inner phase failed:\n%s", rep.Inner.Format())
	}
	if !rep.Outer.AllHold() {
		t.Errorf("outer phase failed:\n%s", rep.Outer.Format())
	}
	if !rep.Verified() {
		t.Errorf("holistic verification did not conclude:\n%s", rep.Format())
	}
	if len(rep.Inner.Results) != 7 {
		t.Errorf("inner results = %d, want 7", len(rep.Inner.Results))
	}
	if len(rep.Outer.Results) != 9 {
		t.Errorf("outer results = %d, want 9", len(rep.Outer.Results))
	}
	out := rep.Format()
	for _, want := range []string{"Agreement:   true", "Validity:    true", "Termination: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateInv1Counterexample(t *testing.T) {
	res, err := GenerateInv1Counterexample(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Violated {
		t.Fatalf("outcome = %v, want violated", res.Outcome)
	}
	if res.CE == nil {
		t.Fatal("no counterexample attached")
	}
	out := res.CE.Format()
	if !strings.Contains(out, "n=") {
		t.Errorf("counterexample format missing parameters:\n%s", out)
	}
}

func TestTable2SkipNaive(t *testing.T) {
	rows, err := Table2(Table2Options{SkipNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	// 4 bv rows + 5 simplified rows.
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Outcome != spec.Holds {
			t.Errorf("%s/%s: %v, want holds", r.TA, r.Query, r.Outcome)
		}
	}
	out := FormatTable2(rows)
	for _, want := range []string{"bv-broadcast", "simplified-consensus", "BV-Unif0", "SRoundTerm"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestTable2NaiveBudget includes the naive block: its rows must report
// budget exhaustion with schema counts beyond the cutoff.
func TestTable2NaiveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("naive schema counting takes a few seconds")
	}
	rows, err := Table2(Table2Options{})
	if err != nil {
		t.Fatal(err)
	}
	naiveRows := 0
	for _, r := range rows {
		if r.TA == "naive-consensus" {
			naiveRows++
			if r.Outcome != spec.Budget {
				t.Errorf("naive %s: %v, want budget-exceeded", r.Query, r.Outcome)
			}
			if r.Schemas <= 100_000 {
				t.Errorf("naive %s: schemas = %d, want > 100,000", r.Query, r.Schemas)
			}
		}
	}
	if naiveRows != 3 {
		t.Errorf("naive rows = %d, want 3", naiveRows)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, ">100000") || !strings.Contains(out, "timeout") {
		t.Errorf("naive rows not rendered as timeouts:\n%s", out)
	}
}

// panicChecker stands in for a schema engine whose Check blows up.
type panicChecker struct{}

func (panicChecker) Check(q *spec.Query) (schema.Result, error) {
	panic("engine exploded on " + q.Name)
}

// TestSafeCheckContainsPanics: a panicking engine fails its own query with a
// descriptive error instead of killing the verification run.
func TestSafeCheckContainsPanics(t *testing.T) {
	q := spec.Query{Name: "inv1"}
	_, err := safeCheck(panicChecker{}, &q)
	if err == nil {
		t.Fatal("panic was not converted into an error")
	}
	if !strings.Contains(err.Error(), "inv1") || !strings.Contains(err.Error(), "engine exploded") {
		t.Errorf("error %q does not identify the query and the panic", err)
	}
}
