// Command holistic is the verification CLI: it runs the paper's holistic
// pipeline, checks individual properties of the three threshold automata,
// regenerates Table 2, produces the Section 6 counterexample, emits the
// automata as Graphviz figures, and compiles/checks ByMC-style property
// files.
//
// Usage:
//
//	holistic pipeline                 run the full two-phase verification
//	holistic verify  [flags]          check properties of one model
//	holistic table2  [flags]          regenerate Table 2
//	holistic ce                       generate the n<=3t counterexample
//	holistic dot     [flags]          print a model as Graphviz DOT
//	holistic spec    [flags]          compile & check a property file
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
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/smt"
	"repro/internal/spec"
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
	case "spec":
		return cmdSpec(args[1:])
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
  verify     check properties of one model (-model bv|naive|simplified)
  table2     regenerate the paper's Table 2
  ce         generate the disagreement counterexample for n <= 3t
  dot        print a model as Graphviz DOT (-model ...)
  spec       compile and check a ByMC-style property file (-model ..., -file ...)
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

// modelByName resolves a bundled model through the same registry the serving
// plane uses, so local and remote verifications of a name run identical
// query sets.
func modelByName(name string) (*ta.TA, []spec.Query, error) {
	return service.BuiltinModel(name)
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
	of := registerObsFlags(fs)
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
	sink, err := of.open("holistic pipeline")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.startProgress(stop)
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
	finalizeReport(obsRep, *workers, interrupted)
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
	model := fs.String("model", "bv", "model: bv, naive or simplified")
	taFile := fs.String("ta", "", "load the automaton from a .ta file instead of a bundled model")
	specFile := fs.String("spec", "", "property file to check (required with -ta)")
	mode := fs.String("mode", "staged", "schema mode: staged or full")
	prop := fs.String("prop", "", "check only this property (default: all)")
	stats := fs.Bool("stats", false, "print SMT effort statistics per property")
	timeout := fs.Duration("timeout", 0, "per-property timeout (0 = none)")
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers (verdicts are deterministic at any count)")
	cacheDir := fs.String("cache", "", "reuse verdicts from this result-cache directory")
	remote := fs.String("remote", "", "send the request to this running service base URL instead of solving locally")
	of := registerObsFlags(fs)
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
	sink, err := of.open("holistic verify")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.startProgress(stop)
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
		row := verdictRow{
			query: res.Query, outcome: res.Outcome.String(), schemas: res.Schemas, avgLen: res.AvgLen,
			elapsed: res.Elapsed, cached: hit, solver: res.Solver,
		}
		if res.CE != nil {
			row.ceText = res.CE.Format()
		}
		row.print(*stats)
	}
	stopProgress()
	finalizeReport(obsRep, *workers, stop())
	if err := sink.Flush(obsRep); err != nil {
		return err
	}
	if stop() {
		return fmt.Errorf("verify interrupted; completed verdicts were reported")
	}
	return nil
}

// verifyRequest builds the request `holistic verify` resolves locally or
// posts to a daemon: a bundled model by name, or the text of -ta and -spec.
func verifyRequest(model, taFile, specFile, prop, mode string, timeout time.Duration) (*service.VerifyRequest, error) {
	req := &service.VerifyRequest{Prop: prop, Mode: mode, TimeoutMS: timeout.Milliseconds()}
	if taFile == "" {
		req.Model = model
		return req, nil
	}
	if specFile == "" {
		return nil, fmt.Errorf("-ta requires -spec with the properties to check")
	}
	taData, err := os.ReadFile(taFile)
	if err != nil {
		return nil, err
	}
	specData, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	req.TA, req.Spec = string(taData), string(specData)
	return req, nil
}

// verdictRow is one `holistic verify` output row; the local and -remote
// paths both print through it.
type verdictRow struct {
	query, outcome string
	schemas        int
	avgLen         float64
	elapsed        time.Duration
	cached         bool
	solver         smt.Stats
	ceText         string
}

func (v verdictRow) print(stats bool) {
	marker := ""
	if v.cached {
		marker = " [cached]"
	}
	fmt.Printf("%-16s %-16s %8d schemas  avg len %6.1f  %v%s\n",
		v.query, v.outcome, v.schemas, v.avgLen, v.elapsed.Round(time.Millisecond), marker)
	if stats {
		fmt.Printf("    smt: %d LP checks, %d pivots, %d rebuilds, %d B&B nodes, %d case splits\n",
			v.solver.LPChecks, v.solver.Pivots, v.solver.Rebuilds, v.solver.BBNodes, v.solver.CaseSplit)
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
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cache, err := openCacheFlag(*cacheDir)
	if err != nil {
		return err
	}
	sink, err := of.open("holistic table2")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()
	stopProgress := of.startProgress(stop)
	rows, err := core.Table2(core.Table2Options{SkipNaive: *skipNaive, NaiveTimeout: *naiveTimeout, Stop: stop, Workers: *workers, Trace: sink.Tracer, Cache: cache})
	stopProgress()
	if err != nil {
		return err
	}
	interrupted := stop()
	rep := reportFromRows("holistic table2", rows)
	finalizeReport(rep, *workers, interrupted)
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
	model := fs.String("model", "bv", "model: bv, naive or simplified")
	taFile := fs.String("ta", "", "load the automaton from a .ta file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a *ta.TA
	var err error
	if *taFile != "" {
		a, err = loadTA(*taFile)
	} else {
		a, _, err = modelByName(*model)
	}
	if err != nil {
		return err
	}
	return a.WriteDOT(os.Stdout)
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	model := fs.String("model", "bv", "model: bv, naive or simplified")
	file := fs.String("file", "", "property file (default: the bundled spec for the model)")
	mode := fs.String("mode", "staged", "schema mode")
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers (verdicts are deterministic at any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, _, err := modelByName(*model)
	if err != nil {
		return err
	}
	src := ""
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(data)
	case strings.HasPrefix(*model, "bv"):
		src = ltl.BVBroadcastSpec
	case *model == "simplified":
		src = ltl.SimplifiedConsensusSpec
	case *model == "strb":
		src = ltl.STRBSpec
	default:
		return fmt.Errorf("no bundled spec for model %s; pass -file", *model)
	}
	pf, err := ltl.ParseFile(src)
	if err != nil {
		return err
	}
	queries, err := ltl.CompileFile(pf, a)
	if err != nil {
		return err
	}
	m, err := schema.ParseMode(*mode)
	if err != nil {
		return err
	}
	stop := watchInterrupt()
	engine, err := schema.New(a, schema.Options{Mode: m, Stop: stop, Workers: *workers})
	if err != nil {
		return err
	}
	for i := range queries {
		if stop() {
			fmt.Fprintln(os.Stderr, "holistic: interrupted; remaining properties skipped")
			break
		}
		res, err := engine.Check(&queries[i])
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %-16s %8d schemas  %v\n",
			res.Query, res.Outcome, res.Schemas, res.Elapsed.Round(time.Millisecond))
	}
	return nil
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
	model := fs.String("model", "bv", "model: bv, naive, simplified, strb, bosco or sba")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, _, err := modelByName(*model)
	if err != nil {
		return err
	}
	return taformat.Write(os.Stdout, a)
}

// bundledSpecs maps every builtin model name to its shipped spec file under
// specs/ (the artifact `holistic export` regenerates and the golden-hash
// test pins).
var bundledSpecs = []struct{ model, file string }{
	{"bv", "bvbroadcast.ta"},
	{"naive", "naive.ta"},
	{"simplified", "simplified.ta"},
	{"strb", "strb.ta"},
	{"bosco", "bosco.ta"},
	{"sba", "sba.ta"},
}

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
	for _, s := range bundledSpecs {
		a, queries, err := modelByName(s.model)
		if err != nil {
			return err
		}
		size := a.Size()
		fmt.Printf("%-12s %-16s %5d %6d %8d  %s\n",
			s.model, s.file, size.Locations, size.Rules, len(queries), vcache.TAHash(a))
	}
	return nil
}
