// Command holistic is the verification CLI: it runs the paper's holistic
// pipeline, checks the properties of a bundled threshold automaton or of a
// ByMC-style property file, regenerates Table 2, produces the Section 6
// counterexample, and emits the automata as Graphviz figures.
//
// Usage:
//
//	holistic pipeline                 run the full two-phase verification
//	holistic verify  [flags]          check properties of one model or property file
//	holistic table2  [flags]          regenerate Table 2
//	holistic ce                       generate the n<=3t counterexample
//	holistic dot     [flags]          print a model as Graphviz DOT
//	holistic specs                    list bundled specs with canonical hashes
//	holistic queue   [flags]          enqueue jobs into a daemon's durable queue and watch them
//	holistic cluster [flags]          coordinate full-mode verification across worker daemons
//	holistic work    [flags]          solve cluster shards for a coordinator
//
// Verification subcommands accept -j <workers> (default: the number of CPUs);
// verdicts, schema counts and counterexamples are deterministic at any -j.
//
// SIGINT/SIGTERM interrupt a verification gracefully: running checks wind
// down with Budget outcomes and the finished verdicts are still printed. A
// second signal force-exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/smt"
	"repro/internal/ta"
	"repro/internal/taformat"
	"repro/internal/vcache"
)

// watchInterrupt converts SIGINT/SIGTERM into the cooperative stop flag the
// verification engines poll at schema-enumeration nodes and SMT case splits.
// The first signal requests a graceful wind-down (interrupted checks report
// Budget, finished verdicts survive); a second signal force-exits.
func watchInterrupt() func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintln(os.Stderr, "holistic: interrupted; winding down checks (signal again to force-exit)")
		<-ch
		os.Exit(130)
	}()
	return stopped.Load
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "holistic:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "pipeline":
		return cmdPipeline(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "table2":
		return cmdTable2(args[1:])
	case "ce":
		return cmdCE(args[1:])
	case "dot":
		return cmdDot(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "specs":
		return cmdSpecs(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "queue":
		return cmdQueue(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	case "work":
		return cmdWork(args[1:])
	case "version", "-version", "--version":
		// The engine version is part of every cache key: entries written by
		// one version are invisible to every other.
		fmt.Printf("holistic engine %s\n", vcache.EngineVersion)
		return nil
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: holistic <subcommand> [flags]

subcommands:
  pipeline   run the full two-phase holistic verification (Theorem 6)
  verify     check properties of one model (-model ..., -spec file.ltl to check a property file)
  table2     regenerate the paper's Table 2
  ce         generate the disagreement counterexample for n <= 3t
  dot        print a model as Graphviz DOT (-model ...)
  export     print a model in the textual automaton format (-model ...)
  specs      list the bundled specs with canonical hashes and query counts
  serve      run the verification HTTP daemon (-addr, -cache-dir, ...)
  queue      client for a daemon's durable job queue (-enqueue, -job, -dead, -wait-idle)
  cluster    run the fault-tolerant coordination plane (full mode, lease-based shards)
  work       run one shard-solving worker daemon against a cluster coordinator
  version    print the engine version embedded in every cache key

most subcommands accept -ta <file.ta> to load a user-supplied automaton
instead of a bundled model, and -j <workers> to set the worker budget
(results are deterministic at any worker count).

verification subcommands accept -cache <dir> to reuse verdicts from the
content-addressed result cache (cached counterexamples are re-certified by
replay before they are trusted); verify also accepts -remote <url> to send
the request to a running "holistic serve" daemon instead of solving locally.

verification subcommands also accept the observability flags:
  -trace out.jsonl    JSONL span/event trace (ring-buffered)
  -report out.json    metric snapshot (deterministic + observational sections)
  -pprof addr         serve net/http/pprof while the run is live
  -progress 2s        periodic progress line on stderr
`)
}

// openCacheFlag opens the -cache directory (empty = caching off). Corrupt
// entries are logged to stderr and re-verified.
func openCacheFlag(dir string) (*vcache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	return vcache.Open(vcache.Options{Dir: dir, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}})
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	mode := fs.String("mode", "staged", "schema mode: staged or full")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON certificate")
	workers := fs.Int("j", runtime.NumCPU(), "total worker budget (verdicts are deterministic at any count)")
	cacheDir := fs.String("cache", "", "reuse verdicts from this result-cache directory")
	of := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := schema.ParseMode(*mode)
	if err != nil {
		return err
	}
	cache, err := openCacheFlag(*cacheDir)
	if err != nil {
		return err
	}
	sink, err := of.Open("holistic pipeline")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.StartProgress(schemaProgress(), stop)
	rep, err := core.HolisticVerification(core.Options{Mode: m, Stop: stop, Parallel: *workers, Trace: sink.Tracer, Cache: cache})
	stopProgress()
	if err != nil {
		return err
	}
	interrupted := stop()
	obsRep := &obs.Report{Tool: "holistic pipeline"}
	for _, res := range rep.Inner.Results {
		addResultMetrics(obsRep, rep.Inner.Model, res)
	}
	for _, res := range rep.Outer.Results {
		addResultMetrics(obsRep, rep.Outer.Model, res)
	}
	obsRep.Stamp(*workers, interrupted)
	if err := sink.Flush(obsRep); err != nil {
		return err
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "holistic: pipeline interrupted; partial verdicts below (interrupted checks report budget)")
	}
	if *asJSON {
		data, err := rep.MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.Format())
	}
	if !rep.Verified() {
		return fmt.Errorf("verification incomplete")
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	model := fs.String("model", "bv", modelHelp())
	taFile := fs.String("ta", "", "load the automaton from a .ta file instead of a bundled model")
	specFile := fs.String("spec", "", "property file to check (required with -ta; with -model it replaces the bundled properties)")
	mode := fs.String("mode", "staged", "schema mode: staged or full")
	prop := fs.String("prop", "", "check only this property (default: all)")
	stats := fs.Bool("stats", false, "print SMT effort statistics per property")
	timeout := fs.Duration("timeout", 0, "per-property timeout (0 = none)")
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers (verdicts are deterministic at any count)")
	cacheDir := fs.String("cache", "", "reuse verdicts from this result-cache directory")
	remote := fs.String("remote", "", "send the request to this running service base URL instead of solving locally")
	of := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := verifyRequest(*model, *taFile, *specFile, *prop, *mode, *timeout)
	if err != nil {
		return err
	}
	if *remote != "" {
		return runRemoteVerify(*remote, req, *stats, of)
	}
	r, err := service.Resolve(req)
	if err != nil {
		return err
	}
	cache, err := openCacheFlag(*cacheDir)
	if err != nil {
		return err
	}
	sink, err := of.Open("holistic verify")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.StartProgress(schemaProgress(), stop)
	defer stopProgress()
	engine, err := schema.New(r.TA, schema.Options{Mode: r.Mode, Timeout: *timeout, Stop: stop, Workers: *workers, Trace: sink.Tracer})
	if err != nil {
		return err
	}
	obsRep := &obs.Report{Tool: "holistic verify"}
	for i := range r.Queries {
		if stop() {
			fmt.Fprintln(os.Stderr, "holistic: interrupted; remaining properties skipped")
			break
		}
		res, hit, err := core.CachedCheck(cache, engine, &r.Queries[i])
		if err != nil {
			return err
		}
		addResultMetrics(obsRep, r.Label, res)
		resultRow(res, hit, *stats).print()
	}
	stopProgress()
	obsRep.Stamp(*workers, stop())
	if err := sink.Flush(obsRep); err != nil {
		return err
	}
	if stop() {
		return fmt.Errorf("verify interrupted; completed verdicts were reported")
	}
	return nil
}

// verifyRequest builds the request every subcommand hands to service.Resolve
// or a daemon: a bundled model by name or the text of -ta, plus the text of
// -spec when given (required with -ta).
func verifyRequest(model, taFile, specFile, prop, mode string, timeout time.Duration) (*service.VerifyRequest, error) {
	req := &service.VerifyRequest{Model: model, Prop: prop, Mode: mode, TimeoutMS: timeout.Milliseconds()}
	if taFile != "" {
		if specFile == "" {
			return nil, fmt.Errorf("-ta requires -spec with the properties to check")
		}
		taData, err := os.ReadFile(taFile)
		if err != nil {
			return nil, err
		}
		req.Model, req.TA = "", string(taData)
	}
	if specFile != "" {
		specData, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		req.Spec = string(specData)
	}
	return req, nil
}

// verdictRow is one verdict as every subcommand prints it: verify (local
// and -remote), cluster and queue.
type verdictRow struct {
	query, outcome string
	schemas        int
	avgLen         float64
	elapsed        time.Duration
	cached         bool
	// stats is the -stats line under the row ("" = off): verify prints the
	// SMT effort, cluster its shard accounting.
	stats  string
	ceText string
}

// resultRow is the row of a verdict solved in this process.
func resultRow(res schema.Result, cached, stats bool) verdictRow {
	row := verdictRow{
		query: res.Query, outcome: res.Outcome.String(), schemas: res.Schemas, avgLen: res.AvgLen,
		elapsed: res.Elapsed, cached: cached,
	}
	if stats {
		row.stats = smtStats(res.Solver)
	}
	if res.CE != nil {
		row.ceText = res.CE.Format()
	}
	return row
}

// smtStats is verify's -stats line: the SMT effort behind one verdict.
func smtStats(st smt.Stats) string {
	return fmt.Sprintf("    smt: %d LP checks, %d pivots, %d rebuilds, %d B&B nodes, %d case splits",
		st.LPChecks, st.Pivots, st.Rebuilds, st.BBNodes, st.CaseSplit)
}

func (v verdictRow) print() {
	marker := ""
	if v.cached {
		marker = " [cached]"
	}
	fmt.Printf("%-16s %-16s %8d schemas  avg len %6.1f  %v%s\n",
		v.query, v.outcome, v.schemas, v.avgLen, v.elapsed.Round(time.Millisecond), marker)
	if v.stats != "" {
		fmt.Println(v.stats)
	}
	if v.ceText != "" {
		fmt.Println(v.ceText)
	}
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	skipNaive := fs.Bool("skip-naive", false, "skip the naive-consensus block")
	naiveTimeout := fs.Duration("naive-timeout", 30*time.Second, "budget for the naive block")
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers per row (counts are deterministic at any -j)")
	cacheDir := fs.String("cache", "", "reuse verdicts from this result-cache directory")
	of := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cache, err := openCacheFlag(*cacheDir)
	if err != nil {
		return err
	}
	sink, err := of.Open("holistic table2")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.StartProgress(schemaProgress(), stop)
	rows, err := core.Table2(core.Table2Options{SkipNaive: *skipNaive, NaiveTimeout: *naiveTimeout, Stop: stop, Workers: *workers, Trace: sink.Tracer, Cache: cache})
	stopProgress()
	if err != nil {
		return err
	}
	interrupted := stop()
	rep := reportFromRows("holistic table2", rows)
	rep.Stamp(*workers, interrupted)
	if err := sink.Flush(rep); err != nil {
		return err
	}
	fmt.Print(core.FormatTable2(rows))
	if interrupted {
		return fmt.Errorf("table2 interrupted; completed rows were reported, interrupted rows show timeout/budget")
	}
	return nil
}

func cmdCE(args []string) error {
	fs := flag.NewFlagSet("ce", flag.ContinueOnError)
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers (the counterexample is deterministic at any count)")
	cacheDir := fs.String("cache", "", "reuse verdicts from this result-cache directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cache, err := openCacheFlag(*cacheDir)
	if err != nil {
		return err
	}
	res, err := core.GenerateInv1Counterexample(core.Options{Stop: watchInterrupt(), Parallel: *workers, Cache: cache})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s in %v\n", res.Query, res.Outcome, res.Elapsed.Round(time.Millisecond))
	if res.CE == nil {
		return fmt.Errorf("expected a counterexample")
	}
	fmt.Println("disagreement execution (certified by replay):")
	fmt.Print(res.CE.Format())
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	model := fs.String("model", "bv", modelHelp())
	taFile := fs.String("ta", "", "load the automaton from a .ta file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a *ta.TA
	var err error
	if *taFile != "" {
		a, err = loadTA(*taFile)
	} else {
		a, _, err = service.BuiltinModel(*model)
	}
	if err != nil {
		return err
	}
	return a.WriteDOT(os.Stdout)
}

// loadTA reads an automaton from a .ta description file.
func loadTA(path string) (*ta.TA, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return taformat.Parse(string(data))
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	model := fs.String("model", "bv", modelHelp())
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, _, err := service.BuiltinModel(*model)
	if err != nil {
		return err
	}
	return taformat.Write(os.Stdout, a)
}

// modelHelp is the -model flag help of every subcommand: the bundled names.
func modelHelp() string { return "model: " + models.Names() }

// cmdSpecs lists the bundled specs with their sizes, query counts and
// canonical vcache hashes — the identities under which verdicts are cached.
// The hashes must match testdata/golden_hashes.txt in internal/vcache; a
// mismatch at an unchanged engine version means the canonical serialization
// drifted.
func cmdSpecs(args []string) error {
	fs := flag.NewFlagSet("specs", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("engine %s\n", vcache.EngineVersion)
	fmt.Printf("%-12s %-16s %5s %6s %8s  %s\n", "MODEL", "SPEC", "LOCS", "RULES", "QUERIES", "HASH")
	for _, m := range models.Bundled {
		a, queries, err := service.BuiltinModel(m.Name)
		if err != nil {
			return err
		}
		size := a.Size()
		fmt.Printf("%-12s %-16s %5d %6d %8d  %s\n",
			m.Name, m.File, size.Locations, size.Rules, len(queries), vcache.TAHash(a))
	}
	return nil
}
