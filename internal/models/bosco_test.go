package models

import (
	"testing"

	"repro/internal/spec"
)

func TestBoscoStructure(t *testing.T) {
	a := Bosco()
	size := a.Size()
	if size.Locations != 9 {
		t.Errorf("locations = %d, want 9", size.Locations)
	}
	// 2 init rules + 2x5 outcome rules + 5 self-loops.
	if size.Rules != 17 {
		t.Errorf("rules = %d, want 17", size.Rules)
	}
	qs, err := Named("bosco").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Errorf("queries = %d, want 5", len(qs))
	}
}

// TestBoscoLemma1ExplicitSmall: ground truth for the safety lemma.
func TestBoscoLemma1ExplicitSmall(t *testing.T) {
	a := Bosco()
	qs, err := Named("bosco").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Kind != spec.Safety {
			continue
		}
		for _, params := range [][3]int64{{4, 1, 1}, {6, 1, 1}, {8, 1, 1}} {
			if got := explicitCheck(t, a, q, params[0], params[1], params[2]); got != spec.Holds {
				t.Errorf("n=%d t=%d f=%d: %s = %v, want holds", params[0], params[1], params[2], q.Name, got)
			}
		}
	}
}
