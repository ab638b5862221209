package schema

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// randomTA generates a random rising-guard DAG automaton: a handful of
// locations in topological order, forward edges with random threshold
// guards over two shared variables, and random unit increments. This pushes
// the checkers onto structures well outside the paper's three models.
func randomTA(rng *rand.Rand, name string) (*ta.TA, error) {
	b := ta.NewBuilder(name)
	x := b.Shared("x")
	y := b.Shared("y")
	shared := []expr.Sym{x, y}

	nLocs := 4 + rng.Intn(4)
	locs := make([]ta.LocID, nLocs)
	for i := range locs {
		var opts []ta.LocOpt
		if i < 2 {
			opts = append(opts, ta.Initial())
		}
		locs[i] = b.Loc(fmt.Sprintf("L%d", i), opts...)
	}

	thresholds := []expr.Lin{
		b.Lin(1),
		b.Lin(1, ta.LinTerm{Coeff: 1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
		b.Lin(1, ta.LinTerm{Coeff: 2, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
		b.Lin(0, ta.LinTerm{Coeff: 1, Sym: b.N()}, ta.LinTerm{Coeff: -1, Sym: b.T()}, ta.LinTerm{Coeff: -1, Sym: b.F()}),
	}

	nRules := nLocs + rng.Intn(2*nLocs)
	for r := 0; r < nRules; r++ {
		from := rng.Intn(nLocs - 1)
		to := from + 1 + rng.Intn(nLocs-from-1) // forward edge: DAG by construction
		var opts []ta.RuleOpt
		if rng.Intn(3) > 0 { // guarded with prob 2/3
			v := shared[rng.Intn(2)]
			th := thresholds[rng.Intn(len(thresholds))]
			opts = append(opts, ta.Guarded(b.GeThreshold(v, th)))
		}
		if rng.Intn(2) == 0 {
			opts = append(opts, ta.Inc(shared[rng.Intn(2)]))
		}
		b.Rule(fmt.Sprintf("r%d", r), locs[from], locs[to], opts...)
	}
	return b.Build()
}

// TestRandomAutomataCrossValidation generates random automata and random
// visit queries and requires the staged engine, full enumeration and the
// explicit-state checker to agree — the generalization of the model-specific
// cross-validation to arbitrary rising-guard DAG systems.
func TestRandomAutomataCrossValidation(t *testing.T) {
	instances := [][3]int64{{4, 1, 1}, {4, 1, 0}, {7, 2, 1}}
	if testing.Short() {
		instances = instances[:2]
	}
	trials := 0
	for seed := int64(0); trials < 30 && seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := randomTA(rng, fmt.Sprintf("rand%d", seed))
		if err != nil {
			continue // some random automata are structurally invalid; skip
		}
		trials++

		// A random visit query over 1-2 random target sets.
		q := spec.Query{Name: "visit", Kind: spec.Safety}
		for k := 0; k <= rng.Intn(2); k++ {
			set := ta.LocSet{}
			for j := 0; j <= rng.Intn(2); j++ {
				set[ta.LocID(rng.Intn(len(a.Locations)))] = true
			}
			q.VisitNonempty = append(q.VisitNonempty, set)
		}
		if err := q.Validate(a); err != nil {
			continue
		}

		staged := newEngine(t, a, Staged)
		full := newEngine(t, a, FullEnumeration)
		rs, err := staged.Check(&q)
		if err != nil {
			t.Fatalf("seed %d staged: %v", seed, err)
		}
		rf, err := full.Check(&q)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		if rs.Outcome != rf.Outcome {
			t.Errorf("seed %d: staged=%v full=%v", seed, rs.Outcome, rf.Outcome)
			continue
		}
		switch rs.Outcome {
		case spec.Holds:
			for _, inst := range instances {
				sys, err := counter.NewSystem(a, counter.ParamsFor(a, inst[0], inst[1], inst[2]), 1)
				if err != nil {
					t.Fatal(err)
				}
				res, err := counter.CheckQueryExplicit(sys, &q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != spec.Holds {
					t.Errorf("seed %d: parameterized holds, explicit n=%d says %v (query %+v)",
						seed, inst[0], res.Outcome, q)
				}
			}
		case spec.Violated:
			ce := rs.CE
			n, tt, f := ce.Params[a.Params[0]], ce.Params[a.Params[1]], ce.Params[a.Params[2]]
			if n > 10 {
				continue
			}
			sys, err := counter.NewSystem(a, counter.ParamsFor(a, n, tt, f), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := counter.CheckQueryExplicit(sys, &q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != spec.Violated {
				t.Errorf("seed %d: CE at n=%d t=%d f=%d but explicit says %v\n%s",
					seed, n, tt, f, res.Outcome, ce.Format())
			}
		}
	}
	if trials < 20 {
		t.Fatalf("only %d valid random automata generated", trials)
	}
}

// TestRandomAutomataLiveness repeats the exercise for liveness queries under
// default justice: goal = the sources drained (always predecessor-closed
// sets are chosen by closing under predecessors).
func TestRandomAutomataLiveness(t *testing.T) {
	trials := 0
	for seed := int64(300); trials < 20 && seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := randomTA(rng, fmt.Sprintf("randlive%d", seed))
		if err != nil {
			continue
		}
		// Goal: a random pred-closed set stays nonempty forever.
		set := ta.LocSet{ta.LocID(rng.Intn(len(a.Locations))): true}
		for changed := true; changed; {
			changed = false
			for _, r := range a.Rules {
				if r.SelfLoop() || r.RoundSwitch {
					continue
				}
				if set[r.To] && !set[r.From] {
					set[r.From] = true
					changed = true
				}
			}
		}
		q := spec.Query{
			Name:          "live",
			Kind:          spec.Liveness,
			FinalNonempty: []ta.LocSet{set},
			Justice:       a.DefaultJustice(),
		}
		if err := q.Validate(a); err != nil {
			continue
		}
		trials++

		staged := newEngine(t, a, Staged)
		rs, err := staged.Check(&q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Cross-check against the explicit justice-stable search.
		sys, err := counter.NewSystem(a, counter.ParamsFor(a, 4, 1, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := counter.CheckQueryExplicit(sys, &q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Outcome == spec.Holds && res.Outcome != spec.Holds {
			t.Errorf("seed %d: parameterized holds but explicit n=4 says %v", seed, res.Outcome)
		}
		if rs.Outcome == spec.Violated {
			n := rs.CE.Params[a.Params[0]]
			if n == 4 && rs.CE.Params[a.Params[1]] == 1 && rs.CE.Params[a.Params[2]] == 1 &&
				res.Outcome != spec.Violated {
				t.Errorf("seed %d: CE at n=4,t=1,f=1 but explicit disagrees", seed)
			}
		}
	}
	if trials < 10 {
		t.Fatalf("only %d valid random liveness trials", trials)
	}
}
