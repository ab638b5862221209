package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schema"
)

// schemaProgress is the -progress line of the verification subcommands:
// schemas solved since the call and the rate.
func schemaProgress() func() string {
	solved := obs.Default.Counter("schema", "schemas_solved")
	start := time.Now()
	return func() string {
		return obs.RateLine("schemas", solved.Load(), 0, time.Since(start))
	}
}

// addResultMetrics appends one check result to the report: the deterministic
// row (schema.Result.Row — Budget rows arrive with their volatile fields
// zeroed) and the observational per-phase timing row, which keeps the full
// values.
func addResultMetrics(rep *obs.Report, model string, res schema.Result) {
	rep.Deterministic.Queries = append(rep.Deterministic.Queries, res.Row(model))
	rep.Observational.Timings = append(rep.Observational.Timings, obs.QueryTimings{
		Model:     model,
		Query:     res.Query,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		EncodeNS:  res.Phases.Encode.Nanoseconds(),
		SolveNS:   res.Phases.Solve.Nanoseconds(),
		FoldNS:    res.Phases.Fold.Nanoseconds(),
	})
}

// reportFromRows builds the -report payload from Table 2 rows.
func reportFromRows(tool string, rows []core.Table2Row) *obs.Report {
	rep := &obs.Report{Tool: tool}
	for _, r := range rows {
		addResultMetrics(rep, r.TA, r.Result)
	}
	return rep
}
