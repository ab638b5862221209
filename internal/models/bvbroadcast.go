package models

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// BVBroadcast builds the threshold automaton of the binary value broadcast
// (Fig. 2). Locations encode which values a correct process has broadcast
// and delivered (Table 1):
//
//	V0,V1: initial, holding input 0 resp. 1
//	B0,B1: broadcast own value
//	B01:   broadcast both values, delivered none
//	C0,C1: delivered own value (added it to contestants)
//	CB0:   delivered 0, broadcast both;  CB1 symmetric
//	C01:   delivered both values
//
// Shared variables b0, b1 count the BV messages sent by correct processes;
// the f messages Byzantine processes may contribute are folded into the
// guards (a threshold of t+1 received messages becomes b_v >= t+1-f sent by
// correct processes).
func BVBroadcast() *ta.TA { return mustParse("bvbroadcast.ta") }

// bvLocsWithout returns Locs_v of the paper: every location a correct
// process may occupy while v is not in its contestants set.
func bvLocsWithout(a *ta.TA, v int) (ta.LocSet, error) {
	if v == 0 {
		return a.LocSetByName("V0", "V1", "B0", "B1", "B01", "C1", "CB1")
	}
	return a.LocSetByName("V0", "V1", "B0", "B1", "B01", "C0", "CB0")
}

// bvDelivered returns the set of locations where v has been delivered
// (v ∈ contestants): C_v, CB_v, C01.
func bvDelivered(a *ta.TA, v int) (ta.LocSet, error) {
	if v == 0 {
		return a.LocSetByName("C0", "CB0", "C01")
	}
	return a.LocSetByName("C1", "CB1", "C01")
}

// BVQueries returns the counterexample queries for the four bv-broadcast
// properties of Section 3.2 (both symmetric instances each for
// Justification, Obligation, Uniformity, plus Termination):
//
//	BV-Just_v:  κ[Vv]=0 ⇒ □(κ[Cv]=0 ∧ κ[CBv]=0 ∧ κ[C01]=0)
//	BV-Obl_v:   □(b_v ≥ t+1 ⇒ ◇ all correct left Locs_v)
//	BV-Unif_v:  ◇ v delivered somewhere ⇒ ◇ all correct left Locs_v
//	BV-Term:    ◇ no correct process remains in V0,V1,B0,B1,B01
func BVQueries(a *ta.TA) ([]spec.Query, error) {
	justice := a.DefaultJustice()
	var out []spec.Query
	for v := 0; v <= 1; v++ {
		vLoc, err := a.LocByName(fmt.Sprintf("V%d", v))
		if err != nil {
			return nil, err
		}
		delivered, err := bvDelivered(a, v)
		if err != nil {
			return nil, err
		}
		locsWithout, err := bvLocsWithout(a, v)
		if err != nil {
			return nil, err
		}
		bv, err := a.SharedByName(fmt.Sprintf("b%d", v))
		if err != nil {
			return nil, err
		}
		// b_v >= t+1 : t+1 correct processes bv-broadcast v.
		trigger := expr.Var(bv)
		if err := trigger.AddTerm(a.Params[1], -1); err != nil {
			return nil, err
		}
		if err := trigger.AddConst(-1); err != nil {
			return nil, err
		}

		out = append(out,
			spec.Query{
				Name:          fmt.Sprintf("BV-Just%d", v),
				Kind:          spec.Safety,
				InitEmpty:     []ta.LocID{vLoc},
				VisitNonempty: []ta.LocSet{delivered},
			},
			spec.Query{
				Name:          fmt.Sprintf("BV-Obl%d", v),
				Kind:          spec.Liveness,
				FinalShared:   []expr.Constraint{expr.GEZero(trigger)},
				FinalNonempty: []ta.LocSet{locsWithout},
				Justice:       justice,
			},
			spec.Query{
				Name:          fmt.Sprintf("BV-Unif%d", v),
				Kind:          spec.Liveness,
				VisitNonempty: []ta.LocSet{delivered},
				FinalNonempty: []ta.LocSet{locsWithout},
				Justice:       justice,
			},
		)
	}
	undelivered, err := a.LocSetByName("V0", "V1", "B0", "B1", "B01")
	if err != nil {
		return nil, err
	}
	out = append(out, spec.Query{
		Name:          "BV-Term",
		Kind:          spec.Liveness,
		FinalNonempty: []ta.LocSet{undelivered},
		Justice:       justice,
	})
	for i := range out {
		if err := out[i].Validate(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}
