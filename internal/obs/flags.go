package obs

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags are the observability flags every verification subcommand and
// campaign mode of the CLIs shares: -trace (JSONL event trace), -report
// (metric snapshot), -pprof (net/http/pprof server) and -progress (periodic
// status line on stderr).
type Flags struct {
	trace    *string
	report   *string
	pprof    *string
	progress *time.Duration
}

// RegisterFlags adds the observability flags to fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		trace:    fs.String("trace", "", "write a JSONL event trace to this file"),
		report:   fs.String("report", "", "write the metric snapshot as JSON to this file"),
		pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
		progress: fs.Duration("progress", 0, "print a progress line at this interval (0 = off)"),
	}
}

// Open validates every requested output up front — a bad path or an
// already-bound pprof port fails here, before any work is spent — and names
// the bound pprof address on stderr. The caller owns the sink: Close
// always, Flush on every exit path that has results (interrupts included).
func (f *Flags) Open(tool string) (*Sink, error) {
	sink, err := OpenSink(SinkOptions{
		Tool:       tool,
		TracePath:  *f.trace,
		ReportPath: *f.report,
		PprofAddr:  *f.pprof,
	})
	if err != nil {
		return nil, err
	}
	if addr := sink.PprofAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "%s: pprof listening on http://%s/debug/pprof/\n", tool, addr)
	}
	return sink, nil
}

// StartProgress prints line() on stderr at the -progress interval (a no-op
// when the flag is 0) until the returned func is called; see StartProgress.
func (f *Flags) StartProgress(line func() string, stop func() bool) func() {
	return StartProgress(os.Stderr, *f.progress, line, stop)
}
