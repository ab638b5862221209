package models

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestSBAStructure checks the superround shape: two symmetric 9-location
// halves, with the three round-switch rules closing the parity-1 exits back
// into the parity-0 initial locations.
func TestSBAStructure(t *testing.T) {
	a := SBA()
	size := a.Size()
	if size.Locations != 18 {
		t.Errorf("locations = %d, want 18", size.Locations)
	}
	switches := 0
	for _, r := range a.Rules {
		if r.RoundSwitch {
			switches++
			name := a.Locations[r.To].Name
			if name != "I0" && name != "I1" {
				t.Errorf("round switch %s targets %s", r.Name, name)
			}
		}
	}
	if switches != 3 {
		t.Errorf("round-switch rules = %d, want 3 (from D1x, E0x, E01x)", switches)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSBAJusticeShape: 9 requirements per half (start x2, lock obligation x2,
// lock uniformity x2, exit x3) plus 3 advance requirements on the mid-round
// exits.
func TestSBAJusticeShape(t *testing.T) {
	js := justiceOf(t, "sba", "SBARoundTerm")
	if len(js) != 21 {
		t.Errorf("justice requirements = %d, want 21", len(js))
	}
	names := make(map[string]bool, len(js))
	for _, j := range js {
		names[j.Name] = true
	}
	for _, want := range []string{
		"start_I0", "lock_obl0", "lock_obl1x", "lock_unif0", "lock_unif1x",
		"exit0", "exit01x", "advance_D0", "advance_E01",
	} {
		if !names[want] {
			t.Errorf("missing justice requirement %s", want)
		}
	}
}

// TestSBAQueriesValidate: the query set builds and validates against the
// one-round automaton.
func TestSBAQueriesValidate(t *testing.T) {
	a := SBA()
	qs, err := Named("sba").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 9 {
		t.Errorf("sba queries = %d, want 9", len(qs))
	}
	safety, liveness := 0, 0
	for _, q := range qs {
		switch q.Kind {
		case spec.Safety:
			safety++
		case spec.Liveness:
			liveness++
		}
	}
	if safety != 8 || liveness != 1 {
		t.Errorf("kinds = %d safety / %d liveness, want 8/1", safety, liveness)
	}
}

// TestSBAPropertiesExplicitSmall verifies every sba property by exhaustive
// state enumeration for small parameter instances — the ground truth the
// parameterized (SMT) verification must agree with.
func TestSBAPropertiesExplicitSmall(t *testing.T) {
	a := SBA()
	qs, err := Named("sba").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range [][3]int64{{4, 1, 1}, {4, 1, 0}} {
		for _, q := range qs {
			if got := explicitCheck(t, a, q, params[0], params[1], params[2]); got != spec.Holds {
				t.Errorf("n=%d t=%d f=%d: %s = %v, want holds", params[0], params[1], params[2], q.Name, got)
			}
		}
	}
}

// TestSBARendersDOT: the automaton renders for documentation tooling.
func TestSBARendersDOT(t *testing.T) {
	var sb strings.Builder
	if err := SBA().WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "L01x") {
		t.Error("DOT output does not mention L01x")
	}
}
