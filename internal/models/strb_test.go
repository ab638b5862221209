package models

import (
	"testing"

	"repro/internal/spec"
)

func TestSTRBStructure(t *testing.T) {
	a := STReliableBroadcast()
	size := a.Size()
	if size.Locations != 4 || size.UniqueGuards != 2 {
		t.Errorf("size = %+v, want 4 locations / 2 guards", size)
	}
	if len(a.InitialLocs()) != 2 {
		t.Errorf("initial locations = %v", a.InitialLocs())
	}
	qs, err := Named("strb").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Errorf("queries = %d, want 3", len(qs))
	}
}

// TestSTRBPropertiesExplicitSmall: ground truth by exhaustive enumeration.
func TestSTRBPropertiesExplicitSmall(t *testing.T) {
	a := STReliableBroadcast()
	qs, err := Named("strb").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range [][3]int64{{4, 1, 1}, {4, 1, 0}, {7, 2, 2}} {
		for _, q := range qs {
			if got := explicitCheck(t, a, q, params[0], params[1], params[2]); got != spec.Holds {
				t.Errorf("n=%d t=%d f=%d: %s = %v, want holds", params[0], params[1], params[2], q.Name, got)
			}
		}
	}
}
