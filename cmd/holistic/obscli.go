package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schema"
)

// obsFlags bundles the observability flags shared by the verification
// subcommands: -trace (JSONL event trace), -report (full metric snapshot),
// -pprof (net/http/pprof server) and -progress (periodic status line).
type obsFlags struct {
	trace    *string
	report   *string
	pprof    *string
	progress *time.Duration
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		trace:    fs.String("trace", "", "write a JSONL event trace to this file"),
		report:   fs.String("report", "", "write the metric snapshot as JSON to this file"),
		pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
		progress: fs.Duration("progress", 0, "print a progress line at this interval (0 = off)"),
	}
}

// open validates every requested output up front — a bad path or an
// already-bound pprof port fails here, before any verification time is
// spent. The caller owns the sink: Close always, Flush on every exit path
// that has results (interrupts included).
func (o *obsFlags) open(tool string) (*obs.Sink, error) {
	sink, err := obs.OpenSink(obs.SinkOptions{
		Tool:       tool,
		TracePath:  *o.trace,
		ReportPath: *o.report,
		PprofAddr:  *o.pprof,
	})
	if err != nil {
		return nil, err
	}
	if addr := sink.PprofAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "holistic: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	return sink, nil
}

// startProgress begins the periodic schemas/s status line (no-op at
// interval 0). The returned stop func is idempotent.
func (o *obsFlags) startProgress(stop func() bool) func() {
	if *o.progress <= 0 {
		return func() {}
	}
	solved := obs.Default.Counter("schema", "schemas_solved")
	start := time.Now()
	return obs.StartProgress(os.Stderr, *o.progress, func() string {
		return obs.RateLine("schemas", solved.Load(), 0, time.Since(start))
	}, stop)
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

// finalizeReport stamps the observational envelope: the worker count, the
// interrupt flag, and the raw process-wide instrument snapshot.
func finalizeReport(rep *obs.Report, workers int, interrupted bool) {
	rep.Observational.Workers = workers
	rep.Observational.Interrupted = interrupted
	rep.Observational.Registry = obs.Default.Snapshot()
}
