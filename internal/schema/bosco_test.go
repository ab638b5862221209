package schema

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestBoscoClassicResults checks BOSCO's resilience trichotomy with the
// parameterized engine:
//
//   - Lemma 1 holds for all n > 3t (a fast decision forces everyone onto the
//     same value);
//   - weakly one-step termination holds for n > 5t with f = 0;
//   - strongly one-step termination holds for n > 7t with any f <= t;
//   - in the gap (n > 5t, f free), the adopt-instead-of-decide
//     counterexample exists, and its parameters land in 5t < n <= 7t with
//     f >= 1.
func TestBoscoClassicResults(t *testing.T) {
	a := models.Bosco()
	qs, err := models.Named("bosco").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, a, Staged)

	want := map[string]spec.Outcome{
		"Lemma1_0":        spec.Holds,
		"Lemma1_1":        spec.Holds,
		"WeaklyOneStep":   spec.Holds,
		"StronglyOneStep": spec.Holds,
		"OneStepGap":      spec.Violated,
	}
	for _, q := range qs {
		res := check(t, e, q)
		if res.Outcome != want[q.Name] {
			msg := ""
			if res.CE != nil {
				msg = "\n" + res.CE.Format()
			}
			t.Errorf("%s: %v, want %v%s", q.Name, res.Outcome, want[q.Name], msg)
			continue
		}
		if q.Name == "OneStepGap" {
			n := res.CE.Params[a.Params[0]]
			tt := res.CE.Params[a.Params[1]]
			f := res.CE.Params[a.Params[2]]
			if n <= 5*tt || n > 7*tt {
				t.Errorf("gap counterexample at n=%d t=%d, want 5t < n <= 7t", n, tt)
			}
			if f < 1 {
				t.Errorf("gap counterexample needs Byzantine votes, got f=%d", f)
			}
		}
	}
}

// TestBoscoExplicitCrossValidation confirms the parameterized verdicts by
// exhaustive enumeration at concrete parameters in each regime.
func TestBoscoExplicitCrossValidation(t *testing.T) {
	a := models.Bosco()
	qs, err := models.Named("bosco").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]spec.Query{}
	for _, q := range qs {
		byName[q.Name] = q
	}

	cases := []struct {
		query   string
		n, t, f int64
		want    spec.Outcome
	}{
		{"Lemma1_0", 4, 1, 1, spec.Holds},
		{"Lemma1_0", 7, 2, 2, spec.Holds},
		{"WeaklyOneStep", 6, 1, 0, spec.Holds},
		{"StronglyOneStep", 8, 1, 1, spec.Holds},
		{"OneStepGap", 6, 1, 1, spec.Violated},
		{"OneStepGap", 7, 1, 1, spec.Violated},
		{"OneStepGap", 8, 1, 1, spec.Holds}, // n > 7t: no gap at this instance
	}
	for _, c := range cases {
		q := byName[c.query]
		sys := a
		if q.RelaxResilience != nil {
			sys = a.WithResilience(q.RelaxResilience)
		}
		csys, err := counter.NewSystem(sys, counter.ParamsFor(a, c.n, c.t, c.f), 1)
		if err != nil {
			t.Fatalf("%s n=%d t=%d f=%d: %v", c.query, c.n, c.t, c.f, err)
		}
		res, err := counter.CheckQueryExplicit(csys, &q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != c.want {
			t.Errorf("%s n=%d t=%d f=%d: explicit %v, want %v", c.query, c.n, c.t, c.f, res.Outcome, c.want)
		}
	}
}
