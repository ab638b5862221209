package schema

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/smt"
	"repro/internal/spec"
)

// TestFoldPrefix pins the one prefix fold on synthetic records. The expected
// Results were recorded from the three folds it replaced (checkFull's inline
// fold, FoldRecords, FoldTruncatedRecords) at dd64711, before they were
// merged — every row where two of them applied, they agreed.
func TestFoldPrefix(t *testing.T) {
	ce := &Counterexample{Schema: []string{"g"}}
	unsat := func(slots, lp, piv int) IndexRecord {
		return IndexRecord{Done: true, Status: smt.Unsat, Slots: slots, Stats: smt.Stats{LPChecks: lp, Pivots: piv}}
	}
	sat := IndexRecord{Done: true, Status: smt.Sat, Slots: 9, Stats: smt.Stats{LPChecks: 2, Pivots: 11, BBNodes: 1}, CE: ce}
	unknown := IndexRecord{Done: true, Status: smt.Unknown, Slots: 4, Stats: smt.Stats{CaseSplit: 7}}
	hole := IndexRecord{}

	complete := []IndexRecord{unsat(3, 1, 4), unsat(5, 2, 6), unsat(5, 1, 0), unsat(7, 3, 9)}
	withUnknown := []IndexRecord{unsat(3, 1, 4), unknown, unsat(5, 1, 0)}
	satComplete := []IndexRecord{unsat(3, 1, 4), unsat(5, 2, 6), sat, hole, unsat(7, 3, 9)}
	holeNoSat := []IndexRecord{unsat(3, 1, 4), hole, unsat(5, 1, 0), hole}
	satPastHole := []IndexRecord{unsat(3, 1, 4), hole, sat, unsat(7, 3, 9)}

	result := func(o spec.Outcome, schemas int, avg float64, solver smt.Stats, ce *Counterexample) Result {
		return Result{Query: "q", Mode: FullEnumeration, Outcome: o, Schemas: schemas, AvgLen: avg, Solver: solver, CE: ce}
	}
	strict := func(recs []IndexRecord) (Result, error) { return FoldRecords("q", recs) }
	interrupted := func(recs []IndexRecord) (Result, error) { return foldPrefix("q", recs, true) }
	truncated := func(recs []IndexRecord) (Result, error) { return FoldTruncatedRecords("q", recs) }

	cases := []struct {
		name    string
		fold    func([]IndexRecord) (Result, error)
		recs    []IndexRecord
		want    Result
		wantErr string
	}{
		{name: "complete, no Sat", fold: strict, recs: complete,
			want: result(spec.Holds, 4, 5, smt.Stats{LPChecks: 7, Pivots: 19}, nil)},
		{name: "complete, no Sat, interrupted after the last solve", fold: interrupted, recs: complete,
			want: result(spec.Budget, 4, 5, smt.Stats{LPChecks: 7, Pivots: 19}, nil)},
		{name: "complete with an Unknown", fold: strict, recs: withUnknown,
			want: result(spec.Budget, 3, 4, smt.Stats{LPChecks: 2, Pivots: 4, CaseSplit: 7}, nil)},
		{name: "Sat with complete prefix", fold: strict, recs: satComplete,
			want: result(spec.Violated, 3, 17.0/3, smt.Stats{LPChecks: 5, Pivots: 21, BBNodes: 1}, ce)},
		{name: "Sat with complete prefix, interrupted", fold: interrupted, recs: satComplete,
			want: result(spec.Violated, 3, 17.0/3, smt.Stats{LPChecks: 5, Pivots: 21, BBNodes: 1}, ce)},
		{name: "interrupted without Sat", fold: interrupted, recs: holeNoSat,
			want: result(spec.Budget, 2, 4, smt.Stats{LPChecks: 2, Pivots: 4}, nil)},
		{name: "interrupted with Sat past a hole", fold: interrupted, recs: satPastHole,
			want: result(spec.Violated, 3, 19.0/3, smt.Stats{LPChecks: 6, Pivots: 24, BBNodes: 1}, ce)},
		{name: "truncated prefix, no Sat", fold: truncated, recs: complete,
			want: result(spec.Budget, 5, 0, smt.Stats{}, nil)},
		{name: "truncated prefix with an Unknown", fold: truncated, recs: withUnknown,
			want: result(spec.Budget, 4, 0, smt.Stats{}, nil)},
		{name: "truncated prefix with Sat", fold: truncated, recs: satComplete,
			want: result(spec.Violated, 3, 17.0/3, smt.Stats{LPChecks: 5, Pivots: 21, BBNodes: 1}, ce)},
		{name: "empty", fold: strict, recs: nil,
			want: result(spec.Holds, 0, 0, smt.Stats{}, nil)},
		{name: "empty truncated", fold: truncated, recs: nil,
			want: result(spec.Budget, 1, 0, smt.Stats{}, nil)},
		{name: "hole under the strict rule", fold: strict, recs: holeNoSat,
			wantErr: "fold incomplete at index 1 with no Sat"},
		{name: "hole below a Sat under the strict rule", fold: strict, recs: satPastHole,
			wantErr: "fold prefix incomplete at index 1 (Sat at 2)"},
		{name: "hole in a truncated prefix", fold: truncated, recs: holeNoSat,
			wantErr: "incomplete at index 1"},
		{name: "hole below a Sat in a truncated prefix", fold: truncated, recs: satPastHole,
			wantErr: "fold prefix incomplete at index 1 (Sat at 2)"},
		{name: "Sat without a counterexample", fold: strict,
			recs:    []IndexRecord{{Done: true, Status: smt.Sat}},
			wantErr: "carries no counterexample"},
	}
	for _, tc := range cases {
		got, err := tc.fold(tc.recs)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
	}
}
