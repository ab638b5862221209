// Package core is the top of the library: the holistic verification
// pipeline of the paper. It wires the models (internal/models), the
// parameterized schema checker (internal/schema) and the LTL specifications
// (internal/ltl) into the paper's two-phase method:
//
//  1. verify the inner binary-value broadcast automaton (Fig. 2) — its four
//     properties BV-Justification/Obligation/Uniformity/Termination, for any
//     n > 3t >= 3f;
//  2. verify the outer simplified consensus automaton (Fig. 4), whose gadget
//     replaces the inner automaton and whose fairness assumptions are
//     exactly the properties proven in phase 1 (Appendix F);
//  3. conclude (Theorem 6): Agreement and Validity hold unconditionally
//     (Inv1 ∧ Inv2), and Termination holds under the bv-broadcast fairness
//     assumption of Section 3.3 (SRoundTerm ∧ Dec ∧ Good).
//
// The package also regenerates Table 2 and the Section 6 counterexample.
package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// Options tunes the verification back-end.
type Options struct {
	// Mode selects the schema strategy (default schema.Staged).
	Mode schema.Mode
	// MaxSchemas is the full-enumeration cutoff (default 100,000 — the
	// paper's reporting threshold for the naive automaton).
	MaxSchemas int
	// Timeout bounds each property check (0 = none).
	Timeout time.Duration
	// Stop, when set, is polled inside every check; a true return winds the
	// check down with a Budget outcome. Signal handlers use it to interrupt
	// a long verification while keeping the finished verdicts.
	Stop func() bool
	// Parallel is the total worker budget (0 or 1 = fully sequential). The
	// paper ran ByMC MPI-parallel on 64 cores; here the budget is split
	// between the two levels of parallelism so they never oversubscribe the
	// machine: up to min(Parallel, #queries) properties check concurrently,
	// with the budget divided between those slots as schema-enumeration
	// workers (schema.Options.Workers). Verdicts are deterministic at any
	// budget.
	Parallel int
	// Trace, when non-nil, receives structured span events from every
	// engine (see schema.Options.Trace). Observational only.
	Trace *obs.Tracer
	// Cache, when non-nil, memoizes verdicts content-addressed by the
	// canonical (automaton, query, engine config, engine version) hash
	// (internal/vcache). Hits skip the engine entirely after re-certifying
	// any counterexample by replay; Budget outcomes are never cached.
	Cache *vcache.Cache
}

func (o Options) engine(a *ta.TA, schemaWorkers int) (*schema.Engine, error) {
	return schema.New(a, schema.Options{
		Mode:       o.Mode,
		MaxSchemas: o.MaxSchemas,
		Timeout:    o.Timeout,
		Stop:       o.Stop,
		Workers:    schemaWorkers,
		Trace:      o.Trace,
	})
}

// splitBudget divides the total worker budget between query-level
// concurrency and per-query schema workers: queries first (they are the
// coarser, better-isolated unit), remaining capacity to the enumeration.
// It returns one slot per concurrently-checked query; slot i's value is the
// schema-worker count of the engine serving it. The values always sum to
// the (min-1-clamped) budget: the old floor division stranded the remainder
// — budget 6 over 4 queries ran 4 slots of 1 worker each and idled 2 cores
// — so the remainder is now spread one extra worker over the first slots.
func splitBudget(budget, queries int) []int {
	if budget < 1 {
		budget = 1
	}
	slots := budget
	if queries >= 1 && slots > queries {
		slots = queries
	}
	base := budget / slots
	rem := budget % slots
	out := make([]int, slots)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Report collects the verdicts for one automaton.
type Report struct {
	Model   string
	Size    ta.Size
	Results []schema.Result
	Elapsed time.Duration
}

// AllHold reports whether every property verified.
func (r Report) AllHold() bool {
	for _, res := range r.Results {
		if res.Outcome != spec.Holds {
			return false
		}
	}
	return len(r.Results) > 0
}

// Result returns the named property's result.
func (r Report) Result(name string) (schema.Result, bool) {
	for _, res := range r.Results {
		if res.Query == name {
			return res, true
		}
	}
	return schema.Result{}, false
}

// checker abstracts the schema engine for the worker pool (and for testing
// its panic containment).
type checker interface {
	Check(q *spec.Query) (schema.Result, error)
}

// safeCheck runs one property check, converting a panic in the engine into
// an error: a misbehaving check must fail its own query, not kill the whole
// verification run — the remaining workers' results are still reported.
func safeCheck(c checker, q *spec.Query) (res schema.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in query %s: %v\n%s", q.Name, r, debug.Stack())
		}
	}()
	return c.Check(q)
}

// CachedCheck is the single cache lookup/fill path every caller shares
// (pipeline, verify, table2, the serving plane): consult the cache under the
// engine's canonical key (Lookup), fall back to a real check on a miss or a
// failed re-certification, and fill the cache with any non-Budget verdict
// (CheckAndFill). A hit reports the lookup's own (tiny) wall clock in
// Elapsed; all deterministic fields are the stored ones, so reports built
// from hits are byte-identical to reports built from cold runs.
func CachedCheck(cache *vcache.Cache, engine *schema.Engine, q *spec.Query) (schema.Result, bool, error) {
	key := ""
	if cache != nil {
		key = vcache.Key(engine.TA(), q, vcache.ConfigOf(engine.Opts()), vcache.EngineVersion)
		if res, ok := Lookup(cache, engine, q, key); ok {
			return res, true, nil
		}
	}
	res, err := CheckAndFill(cache, engine, q, key)
	return res, false, err
}

// Lookup serves the query from the cache entry stored under key, rebuilt
// and — for a violation — re-certified against the engine's automaton. A
// miss, a nil cache and an entry that fails re-certification all report
// false; the real check that follows overwrites a bad entry.
func Lookup(cache *vcache.Cache, engine *schema.Engine, q *spec.Query, key string) (schema.Result, bool) {
	if cache == nil {
		return schema.Result{}, false
	}
	start := time.Now()
	ent, ok := cache.Get(key)
	if !ok {
		return schema.Result{}, false
	}
	res, err := ent.ToResult(engine.TA(), q)
	if err != nil {
		return schema.Result{}, false
	}
	res.Elapsed = time.Since(start)
	return res, true
}

// CheckAndFill runs the real check (panic-contained, see safeCheck) and
// stores any non-Budget verdict under key; a nil cache only checks.
func CheckAndFill(cache *vcache.Cache, engine *schema.Engine, q *spec.Query, key string) (schema.Result, error) {
	res, err := safeCheck(engine, q)
	if cache != nil && err == nil && res.Outcome != spec.Budget {
		if ent, eerr := vcache.FromResult(engine.TA(), key, res); eerr == nil {
			_ = cache.Put(ent) // disk failures are logged by the cache; never fail a verdict
		}
	}
	return res, err
}

func runQueries(a *ta.TA, queries []spec.Query, opts Options) (Report, error) {
	start := time.Now()
	slots := splitBudget(opts.Parallel, len(queries))
	// One engine per slot, each sized to its slot's schema-worker share, so
	// the whole budget is in play even when it doesn't divide evenly. Which
	// slot a query lands on cannot affect its verdict: results are
	// deterministic at any worker count (see internal/schema/parallel.go).
	engines := make([]*schema.Engine, len(slots))
	for si, w := range slots {
		var err error
		engines[si], err = opts.engine(a, w)
		if err != nil {
			return Report{}, err
		}
	}
	rep := Report{Model: a.Name, Size: a.Size()}
	results := make([]schema.Result, len(queries))
	errs := make([]error, len(queries))

	slotCh := make(chan int, len(slots))
	for si := range slots {
		slotCh <- si
	}
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		si := <-slotCh
		go func(i, si int) {
			defer wg.Done()
			defer func() { slotCh <- si }()
			results[i], _, errs[i] = CachedCheck(opts.Cache, engines[si], &queries[i])
		}(i, si)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("core: checking %s on %s: %w", queries[i].Name, a.Name, err)
		}
	}
	rep.Results = results
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// VerifyBVBroadcast checks the four bv-broadcast properties of Section 3.2
// for all parameters.
func VerifyBVBroadcast(opts Options) (Report, error) {
	a := models.BVBroadcast()
	qs, err := models.BVQueries(a)
	if err != nil {
		return Report{}, err
	}
	return runQueries(a, qs, opts)
}

// VerifySimplifiedConsensus checks the Section 5 properties of the
// simplified consensus automaton for all parameters.
func VerifySimplifiedConsensus(opts Options) (Report, error) {
	a := models.SimplifiedConsensus()
	qs, err := models.SimplifiedQueries(a)
	if err != nil {
		return Report{}, err
	}
	return runQueries(a, qs, opts)
}

// VerifyNaiveConsensus attempts the monolithic verification the paper shows
// to be infeasible (with full enumeration it exceeds the schema budget).
func VerifyNaiveConsensus(opts Options) (Report, error) {
	a := models.NaiveConsensus()
	qs, err := models.NaiveQueries(a)
	if err != nil {
		return Report{}, err
	}
	return runQueries(a, qs, opts)
}

// HolisticReport is the outcome of the full two-phase pipeline.
type HolisticReport struct {
	Inner Report // bv-broadcast (Fig. 2)
	Outer Report // simplified consensus (Fig. 4)

	// AgreementVerified and ValidityVerified follow from Inv1 ∧ Inv2
	// ([10, Proposition 2] as used in Section 5.1); they hold without any
	// fairness assumption.
	AgreementVerified bool
	ValidityVerified  bool
	// TerminationVerified follows from SRoundTerm ∧ Dec ∧ Good under the
	// fairness assumption of Section 3.3 (Theorem 6).
	TerminationVerified bool

	Elapsed time.Duration
}

// Verified reports whether the whole consensus algorithm is verified
// (safety unconditionally, liveness under bv-fairness).
func (h HolisticReport) Verified() bool {
	return h.AgreementVerified && h.ValidityVerified && h.TerminationVerified
}

// HolisticVerification runs the paper's pipeline end to end. The outer phase
// is only meaningful if the inner phase succeeded: the simplified
// automaton's justice assumptions are the inner automaton's proven
// properties.
func HolisticVerification(opts Options) (HolisticReport, error) {
	start := time.Now()
	inner, err := VerifyBVBroadcast(opts)
	if err != nil {
		return HolisticReport{}, err
	}
	rep := HolisticReport{Inner: inner}
	if !inner.AllHold() {
		rep.Elapsed = time.Since(start)
		return rep, nil
	}
	outer, err := VerifySimplifiedConsensus(opts)
	if err != nil {
		return HolisticReport{}, err
	}
	rep.Outer = outer

	holds := func(names ...string) bool {
		for _, n := range names {
			res, ok := outer.Result(n)
			if !ok || res.Outcome != spec.Holds {
				return false
			}
		}
		return true
	}
	rep.AgreementVerified = holds("Inv1_0", "Inv1_1")
	rep.ValidityVerified = holds("Inv2_0", "Inv2_1")
	rep.TerminationVerified = holds("SRoundTerm", "Dec_0", "Dec_1", "Good_0", "Good_1")
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// GenerateInv1Counterexample reproduces the Section 6 experiment: with the
// resilience condition relaxed to n > 2t, the checker produces a concrete
// disagreement execution (certified by replay).
func GenerateInv1Counterexample(opts Options) (schema.Result, error) {
	a := models.SimplifiedConsensus()
	q, err := models.Inv1CounterexampleQuery(a)
	if err != nil {
		return schema.Result{}, err
	}
	// A single query: the whole worker budget goes to schema enumeration.
	engine, err := opts.engine(a, opts.Parallel)
	if err != nil {
		return schema.Result{}, err
	}
	res, _, err := CachedCheck(opts.Cache, engine, &q)
	return res, err
}

// Format renders a report as text.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d locations, %d rules, %d unique guards)\n",
		r.Model, r.Size.Locations, r.Size.Rules, r.Size.UniqueGuards)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  %-14s %-16s %8d schemas  avg len %6.1f  %v\n",
			res.Query, res.Outcome, res.Schemas, res.AvgLen, res.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// Format renders the holistic report.
func (h HolisticReport) Format() string {
	var b strings.Builder
	b.WriteString("Phase 1 — inner automaton (binary value broadcast):\n")
	b.WriteString(h.Inner.Format())
	b.WriteString("Phase 2 — outer automaton (simplified consensus):\n")
	b.WriteString(h.Outer.Format())
	fmt.Fprintf(&b, "Agreement:   %v\nValidity:    %v\nTermination: %v (under bv-broadcast fairness)\nTotal: %v\n",
		h.AgreementVerified, h.ValidityVerified, h.TerminationVerified, h.Elapsed.Round(time.Millisecond))
	return b.String()
}
