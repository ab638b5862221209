package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ltl"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/taformat"
)

//go:embed expected.json
var expectedJSON []byte

// expected mirrors expected.json.
type expected struct {
	Staged            map[string]map[string]string `json:"staged"`
	Full              map[string]map[string]string `json:"full"`
	RelaxedResilience map[string]map[string]string `json:"relaxed_resilience"`
	NaivePrefix       map[string]string            `json:"naive_prefix"`
	ViolatedCertify   bool                         `json:"violated_must_certify"`
	Simulator         struct {
		Decided      bool `json:"every_correct_replica_decided"`
		AgreementErr bool `json:"agreement_error"`
		ValidityErr  bool `json:"validity_error"`
		RunErr       bool `json:"run_error"`
		Stalled      int  `json:"stalled_peers"`
		SameSeedSame bool `json:"same_seed_fingerprints_identical"`
	} `json:"simulator"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// suiteModels are the automata whose every query the staged engine decides.
// The smoke scale keeps the two lightest, one of which has the violated
// query; the consensus automata alone cost a second per pass.
func suiteModels(e *env) []string {
	if e.smoke() {
		return []string{"strb", "bosco"}
	}
	return []string{"bv", "simplified", "strb", "bosco", "sba"}
}

// workloadLayers lists the per-layer metrics the workloads themselves fill
// (the harness adds runtime.*, trace.* and the obs-counter ones). A repeat
// starts from all of them at zero, so a layer a workload bypasses reads 0
// rather than going missing.
var workloadLayers = []string{
	"schema.encode_s", "schema.solve_s", "schema.fold_s", "schema.schemas", "schema.avg_len", "schema.check_max_ms",
	"schema.plan_s", "schema.enumerate_s", "schema.solve_range_s", "schema.fold_records_s", "schema.contexts",
	"smt.probe_check_rational_us", "smt.probe_check_integer_us", "smt.probe_push_pop_us", "expr.probe_snapshot_us",
	"taformat.parse_ms", "ltl.compile_ms", "core.ce_ms", "counter.certify_ms",
	"vcache.key_us", "vcache.get_hit_us", "vcache.put_us", "vcache.hit_ratio",
	"service.cold_engine_s", "service.overhead_p50_ms", "service.cold_pass_s",
	"service.warm_p50_ms", "service.warm_p95_ms",
	"queue.ack_p50_ms", "queue.done_p95_ms", "queue.ack_to_done_p50_ms", "queue.peak_depth",
	"wal.probe_append_us", "wal.probe_sync_ms", "loadgen.late_p95_ms",
	"cluster.journal_records", "cluster.submit_to_done_s", "cluster.overhead_ratio",
	"network.enqueued", "network.delivered", "network.relayed", "network.cap_drops", "network.egress_drops",
	"network.filtered", "network.peak_depth", "network.windows", "network.us_per_window",
	"network.probe_null_msgs_per_s", "dbft.handler_share", "dbft.rounds_max", "sba.probe_decide_s",
	"faults.drops", "faults.delays",
}

func newLayers() map[string]float64 {
	m := make(map[string]float64, len(workloadLayers)+32)
	for _, name := range workloadLayers {
		m[name] = 0
	}
	return m
}

// parseSpecs reads every specs/*.ta and compiles the *.ltl beside it,
// returning the two layers' times.
func parseSpecs(root string) (parse, compile time.Duration, err error) {
	taFiles, err := filepath.Glob(filepath.Join(root, "specs", "*.ta"))
	if err != nil {
		return 0, 0, err
	}
	if len(taFiles) == 0 {
		return 0, 0, fmt.Errorf("no specs/*.ta under %s", root)
	}
	for _, f := range taFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		a, err := taformat.Parse(string(src))
		parse += time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
		ltlSrc, err := os.ReadFile(strings.TrimSuffix(f, ".ta") + ".ltl")
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		pf, err := ltl.ParseFile(string(ltlSrc))
		if err == nil {
			_, err = ltl.CompileFile(pf, a)
		}
		compile += time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
	}
	return parse, compile, nil
}

// check is one (automaton, query, mode) the suite decides.
type check struct {
	model string
	a     *ta.TA
	q     *spec.Query
	mode  schema.Mode
	want  string
}

// buildChecks expands expected.json's staged (or full) table into checks,
// failing if the bundled models and the table disagree on what exists.
func buildChecks(table map[string]map[string]string, modelNames []string, mode schema.Mode) ([]check, error) {
	var out []check
	for _, m := range modelNames {
		a, qs, err := service.BuiltinModel(m)
		if err != nil {
			return nil, err
		}
		want := table[m]
		found := 0
		for i := range qs {
			w, ok := want[qs[i].Name]
			if !ok {
				if mode == schema.Staged {
					return nil, fmt.Errorf("expected.json has no answer for %s/%s", m, qs[i].Name)
				}
				continue
			}
			found++
			out = append(out, check{model: m, a: a, q: &qs[i], mode: mode, want: w})
		}
		if found != len(want) {
			return nil, fmt.Errorf("expected.json names %d %s queries for %s, the model has %d of them", len(want), mode, m, found)
		}
	}
	return out, nil
}

// certifyCE replays a violated verdict's counterexample.
func certifyCE(a *ta.TA, q *spec.Query, res schema.Result) error {
	if res.CE == nil {
		return fmt.Errorf("violated without a counterexample")
	}
	_, err := schema.Certify(a, q, res.CE.Params, res.CE.Run)
	return err
}

// ---- spec_suite ----

type specSuite struct {
	e      *env
	checks []check
}

func setupSpecSuite(e *env) (instance, error) {
	s := &specSuite{e: e}
	staged, err := buildChecks(e.exp.Staged, suiteModels(e), schema.Staged)
	if err != nil {
		return nil, err
	}
	s.checks = staged
	if !e.smoke() {
		full, err := buildChecks(e.exp.Full, []string{"bv"}, schema.FullEnumeration)
		if err != nil {
			return nil, err
		}
		s.checks = append(s.checks, full...)
	}
	// The seed fixes the order a designer happens to ask the questions in.
	rand.New(rand.NewSource(e.seed)).Shuffle(len(s.checks), func(i, j int) {
		s.checks[i], s.checks[j] = s.checks[j], s.checks[i]
	})
	// Warm-up: the light automata once, untimed.
	for _, c := range s.checks {
		if c.model == "bv" || c.model == "strb" || c.model == "bosco" {
			if _, err := s.run(spanRef{}, c, &unitOut{}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// run decides one check at a single worker and compares the verdict.
func (s *specSuite) run(parent spanRef, c check, out *unitOut) (schema.Result, error) {
	sp := parent.child("schema.new")
	eng, err := schema.New(c.a, schema.Options{Mode: c.mode, Workers: 1})
	sp.end()
	if err != nil {
		return schema.Result{}, err
	}
	sp = parent.child("schema.check")
	res, err := eng.Check(c.q)
	sp.end()
	if err != nil {
		return schema.Result{}, fmt.Errorf("%s/%s: %w", c.model, c.q.Name, err)
	}
	out.attempted++
	if got := res.Outcome.String(); got != c.want {
		out.fail("%s/%s (%s): %s, expected %s", c.model, c.q.Name, c.mode, got, c.want)
	} else if res.Outcome == spec.Violated && s.e.exp.ViolatedCertify {
		sp = parent.child("schema.certify")
		err := certifyCE(eng.TA(), c.q, res)
		sp.end()
		if err != nil {
			out.fail("%s/%s: counterexample does not certify: %v", c.model, c.q.Name, err)
		}
	}
	return res, nil
}

// unit is one pass: every staged query, the four Table 2 bv rows in full
// mode, and the relaxed-resilience counterexample.
func (s *specSuite) unit(root spanRef) (*unitOut, error) {
	out := &unitOut{layers: newLayers(), exact: map[string]int64{}}
	var phases schema.PhaseTimings
	var slowest time.Duration
	var schemas int
	var lenSum float64
	t0 := time.Now()
	for _, c := range s.checks {
		q0 := time.Now()
		res, err := s.run(root, c, out)
		if err != nil {
			return nil, err
		}
		slowest = max(slowest, time.Since(q0))
		phases.Add(res.Phases)
		schemas += res.Schemas
		lenSum += res.AvgLen * float64(res.Schemas)
	}
	sp := root.child("core.counterexample")
	c0 := time.Now()
	ce, err := core.GenerateInv1Counterexample(core.Options{})
	out.layers["core.ce_ms"] = ms(time.Since(c0))
	sp.end()
	if err != nil {
		return nil, err
	}
	out.attempted++
	want := s.e.exp.RelaxedResilience["simplified"]["Inv1_0-no-resilience"]
	if got := ce.Outcome.String(); got != want {
		out.fail("simplified/%s: %s, expected %s", ce.Query, got, want)
	} else if ce.Outcome == spec.Violated {
		a := models.SimplifiedConsensus()
		q, err := models.Inv1CounterexampleQuery(a)
		if err != nil {
			return nil, err
		}
		sp := root.child("schema.certify")
		c0 := time.Now()
		err = certifyCE(a.OneRound(), &q, ce)
		out.layers["counter.certify_ms"] = ms(time.Since(c0))
		sp.end()
		if err != nil {
			out.fail("simplified/%s: counterexample does not certify: %v", ce.Query, err)
		}
	}
	phases.Add(ce.Phases)
	schemas += ce.Schemas
	lenSum += ce.AvgLen * float64(ce.Schemas)
	out.wallS = time.Since(t0).Seconds()
	out.ops, out.opsWallS = float64(out.attempted), out.wallS

	out.layers["schema.encode_s"] = phases.Encode.Seconds()
	out.layers["schema.solve_s"] = phases.Solve.Seconds()
	out.layers["schema.fold_s"] = phases.Fold.Seconds()
	out.layers["schema.schemas"] = float64(schemas)
	out.layers["schema.avg_len"] = ratio(lenSum, float64(schemas))
	out.layers["schema.check_max_ms"] = ms(slowest)
	out.exact["schema.schemas"] = int64(schemas)
	out.smtExact = true
	return out, nil
}

func (s *specSuite) probes(layers map[string]float64) error { return layerProbes(s.e, layers) }
func (s *specSuite) close()                                 {}

// ---- full_solve ----

// fullSolve solves a window of the naive automaton's Inv1_0 guard-context
// preorder that lies in its solver-bound region (see README: on this engine
// contexts below ~26,000 settle at ~5,000/s, the next few thousand at
// ~400/s).
type fullSolve struct {
	e            *env
	a            *ta.TA
	q            *spec.Query
	base, window int
}

const fullSolveBase = 26800

func findQuery(model, prop string) (*ta.TA, *spec.Query, error) {
	a, qs, err := service.BuiltinModel(model)
	if err != nil {
		return nil, nil, err
	}
	for i := range qs {
		if qs[i].Name == prop {
			return a, &qs[i], nil
		}
	}
	return nil, nil, fmt.Errorf("model %s has no property %s", model, prop)
}

func setupFullSolve(e *env) (instance, error) {
	f := &fullSolve{e: e, window: e.div(600, 24)}
	var err error
	if f.a, f.q, err = findQuery("naive", "Inv1_0"); err != nil {
		return nil, err
	}
	// The seed slides the window a little; the region stays the same.
	f.base = fullSolveBase + int(e.seed%64)
	// The warm-up window does not slide: contexts here cost very unevenly,
	// and 64 of them from a seeded start would make setup_s swing twofold
	// from seed to seed.
	warm := *f
	warm.base, warm.window = fullSolveBase, min(f.window, 64)
	if _, err := warm.unit(spanRef{}); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fullSolve) unit(root spanRef) (*unitOut, error) {
	out := &unitOut{layers: newLayers(), exact: map[string]int64{}}
	t0 := time.Now()
	eng, err := schema.New(f.a, schema.Options{Mode: schema.FullEnumeration})
	if err != nil {
		return nil, err
	}
	sp := root.child("schema.plan_full")
	p0 := time.Now()
	plan, err := eng.PlanFull(f.q)
	out.layers["schema.plan_s"] = time.Since(p0).Seconds()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("schema.enumerate_prefix")
	p0 = time.Now()
	ctxs, _ := plan.EnumeratePrefix(f.base+f.window, nil)
	out.layers["schema.enumerate_s"] = time.Since(p0).Seconds()
	sp.end()
	if len(ctxs) != f.base+f.window {
		return nil, fmt.Errorf("naive/Inv1_0 enumerated %d contexts, need %d", len(ctxs), f.base+f.window)
	}
	sp = root.child("schema.solve_range")
	p0 = time.Now()
	recs, interrupted, err := plan.SolveRange(ctxs[f.base:], f.base, 1, nil)
	out.layers["schema.solve_range_s"] = time.Since(p0).Seconds()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("schema.fold_truncated")
	p0 = time.Now()
	res, err := schema.FoldTruncatedRecords(f.q.Name, recs)
	out.layers["schema.fold_records_s"] = time.Since(p0).Seconds()
	sp.end()
	out.wallS = time.Since(t0).Seconds()
	out.ops, out.opsWallS = float64(len(recs)), out.wallS

	out.attempted = len(recs) + 1
	for i := range recs {
		if !recs[i].Done {
			out.fail("context %d not solved", f.base+i)
		}
	}
	want := f.e.exp.NaivePrefix[f.q.Name]
	switch {
	case err != nil:
		out.fail("fold: %v", err)
	case interrupted:
		out.fail("solve interrupted")
	case res.Outcome.String() != want:
		out.fail("naive/%s prefix folds to %s, expected %s", f.q.Name, res.Outcome, want)
	case res.Schemas != len(recs)+1:
		out.fail("naive/%s prefix reports %d schemas, expected %d", f.q.Name, res.Schemas, len(recs)+1)
	}
	out.layers["schema.contexts"] = float64(len(recs))
	out.exact["schema.contexts"] = int64(len(recs))
	out.smtExact = true
	return out, nil
}

func (f *fullSolve) probes(layers map[string]float64) error { return layerProbes(f.e, layers) }
func (f *fullSolve) close()                                 {}
