package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// Table2Row is one line of the paper's Table 2: the automaton and its size
// next to the check's Result, which carries the Table 2 columns (property,
// schemas, average length, time) plus the solver effort behind the verdict
// and the per-phase wall-clock breakdown.
type Table2Row struct {
	TA   string
	Size ta.Size
	schema.Result
}

// Table2Options selects which blocks to run.
type Table2Options struct {
	// NaiveTimeout bounds the naive block; the schema budget usually fires
	// first (default 30s).
	NaiveTimeout time.Duration
	// SkipNaive drops the naive rows entirely (for quick runs).
	SkipNaive bool
	// Stop, when set, is polled inside every check; a true return winds the
	// remaining checks down with Budget outcomes (signal handlers use it).
	Stop func() bool
	// Workers is the schema-enumeration worker count per check (0 or 1 =
	// sequential). Table 2 rows run one at a time so the timing column stays
	// meaningful; the enumeration inside each row parallelizes, with
	// deterministic schema counts and outcomes.
	Workers int
	// Trace, when non-nil, receives span events from every check.
	Trace *obs.Tracer
	// Cache, when non-nil, memoizes verdicts (see Options.Cache).
	Cache *vcache.Cache
}

// Table2 regenerates the paper's Table 2:
//
//   - the bv-broadcast block runs with FULL schema enumeration, the mode
//     whose schema counts the paper reports (BV-Just/Obl/Unif/Term);
//   - the naive consensus block runs with full enumeration and reports
//     budget exhaustion (>100,000 schemas — the paper's >24h timeout);
//   - the simplified consensus block runs with the staged engine, the
//     optimized mode corresponding to ByMC's few-schema results.
func Table2(opts Table2Options) ([]Table2Row, error) {
	if opts.NaiveTimeout == 0 {
		opts.NaiveTimeout = 30 * time.Second
	}
	var rows []Table2Row

	add := func(a *ta.TA, queries []spec.Query, names []string, mode schema.Mode, timeout time.Duration) error {
		engine, err := schema.New(a, schema.Options{Mode: mode, Timeout: timeout, Stop: opts.Stop, Workers: opts.Workers, Trace: opts.Trace})
		if err != nil {
			return err
		}
		var picked []spec.Query
		for _, q := range queries {
			if names == nil || contains(names, q.Name) {
				picked = append(picked, q)
			}
		}
		keys := cacheKeys(opts.Cache, engine, picked)
		size := a.Size()
		for i := range picked {
			res, _, err := checkKeyed(opts.Cache, engine, &picked[i], keys[i])
			if err != nil {
				return fmt.Errorf("core: table2 %s/%s: %w", a.Name, picked[i].Name, err)
			}
			rows = append(rows, Table2Row{TA: a.Name, Size: size, Result: res})
		}
		return nil
	}

	// Block 1: bv-broadcast — the four properties the paper reports.
	bv := models.BVBroadcast()
	bvq, err := models.Named("bv").Queries(bv)
	if err != nil {
		return nil, err
	}
	if err := add(bv, bvq, []string{"BV-Just0", "BV-Obl0", "BV-Unif0", "BV-Term"},
		schema.FullEnumeration, 0); err != nil {
		return nil, err
	}

	// Block 2: naive consensus — full enumeration explodes.
	if !opts.SkipNaive {
		naive := models.NaiveConsensus()
		nq, err := models.Named("naive").Queries(naive)
		if err != nil {
			return nil, err
		}
		if err := add(naive, nq, []string{"Inv1_0", "Inv2_0", "SRoundTerm"},
			schema.FullEnumeration, opts.NaiveTimeout); err != nil {
			return nil, err
		}
	}

	// Block 3: simplified consensus — the staged engine verifies every
	// property in well under a second each.
	simp := models.SimplifiedConsensus()
	sq, err := models.Named("simplified").Queries(simp)
	if err != nil {
		return nil, err
	}
	if err := add(simp, sq, []string{"Inv1_0", "Inv2_0", "SRoundTerm", "Good_0", "Dec_0"},
		schema.Staged, 0); err != nil {
		return nil, err
	}
	return rows, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// FormatTable2 renders the rows in the layout of the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-28s %-14s %10s %10s %12s\n",
		"TA", "Size", "Property", "# schemas", "Avg len", "Time")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	lastTA := ""
	for _, r := range rows {
		taCol, sizeCol := "", ""
		if r.TA != lastTA {
			taCol = r.TA
			sizeCol = fmt.Sprintf("%dg/%dloc/%drules", r.Size.UniqueGuards, r.Size.Locations, r.Size.Rules)
			lastTA = r.TA
		}
		schemas := fmt.Sprintf("%d", r.Schemas)
		avg := fmt.Sprintf("%.0f", r.AvgLen)
		elapsed := r.Elapsed.Round(time.Millisecond).String()
		if r.Outcome == spec.Budget {
			schemas = fmt.Sprintf(">%d", r.Schemas-1)
			avg = "-"
			elapsed = "timeout"
		}
		fmt.Fprintf(&b, "%-22s %-28s %-14s %10s %10s %12s\n",
			taCol, sizeCol, r.Query, schemas, avg, elapsed)
	}
	return b.String()
}
