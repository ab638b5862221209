// Command benchmark is the repository's one benchmark: six named workloads
// over the verifier, the serving stack and the simulator, every output
// checked against expected.json, end-to-end metrics measured with tracing
// off and per-layer metrics from a traced run. See README.md beside this
// file for the workloads, the metrics and how they are meant to interact.
//
//	go run ./benchmark                         all workloads, untraced then traced
//	go run ./benchmark -workload sim_mesh      one run; last stdout line is its JSON result
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/vcache"
)

var workloads = []workload{
	{"spec_suite", setupSpecSuite},
	{"full_solve", setupFullSolve},
	{"cluster_prune", setupClusterPrune},
	{"service_mix", setupServiceMix},
	{"sim_mesh", setupSimMesh},
	{"sim_gossip", setupSimGossip},
}

// header stamps an artifact with what produced it.
type header struct {
	EngineVersion string  `json:"engine_version"`
	GitCommit     string  `json:"git_commit"`
	NumCPU        int     `json:"num_cpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Seed          int64   `json:"seed"`
	Scale         int     `json:"scale"`
	Seconds       float64 `json:"seconds"`
	GeneratedAt   string  `json:"generated_at"`
}

// artifact is the one JSON file a full run writes.
type artifact struct {
	Schema    string           `json:"schema"`
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string     `json:"name"`
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

// gitCommit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func newHeader(seed int64, scale int, seconds float64) header {
	return header{
		EngineVersion: vcache.EngineVersion,
		GitCommit:     gitCommit(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		Scale:         scale,
		Seconds:       seconds,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
	}
}

// printMetrics prints one workload's metrics by name with their units, in
// BENCHMARK.json order.
func printMetrics(name string, specs []metricSpec, vals map[string]value) {
	for _, m := range specs {
		fmt.Printf("%-14s %-32s %14s %s\n", name, m.Name, fmtFloat(vals[m.Name].Value), m.Unit)
	}
}

// reportSamples prints the per-repeat values behind each median, on
// standard error, so a reader can see every repeat that was made.
func reportSamples(r *runResult, specs []metricSpec) {
	for _, m := range specs {
		if xs := r.Samples[m.Name]; len(xs) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s repeats:", r.Workload, m.Name)
			for _, x := range xs {
				fmt.Fprintf(os.Stderr, " %s", fmtFloat(x))
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}

func reportProblems(r *runResult) {
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.Workload, p)
	}
}

// runOne is the mode the driver uses: one workload, one run, and as the last
// line of standard output one JSON object with the run's metrics.
func runOne(spec *benchSpec, root string, w workload, rc runConfig) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	res, err := runWorkload(w, rc, root, exp)
	if err != nil {
		return err
	}
	group := spec.EndToEnd
	if rc.traced {
		group = spec.PerLayer
		for _, m := range spec.EndToEnd {
			delete(res.Metrics, m.Name)
		}
	}
	vals, err := pick(group, res.Metrics)
	if err != nil {
		return err
	}
	printMetrics(w.name, group, vals)
	reportSamples(res, spec.EndToEnd)
	if rc.traced {
		fmt.Printf("blocking chain of the last traced repeat:\n%s", formatChain(res.Chain))
	}
	reportProblems(res)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, vals})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or differ from expected.json", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// measureAll runs every workload untraced and then traced and returns the
// artifact and how many operations failed. Each run's metric set is held
// against BENCHMARK.json; with verbose set every metric is printed by name
// with its unit.
func measureAll(spec *benchSpec, root string, rc runConfig, verbose bool) (*artifact, int, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, 0, err
	}
	art := &artifact{Schema: "holistic-benchmark/v1", Header: newHeader(rc.seed, rc.scale, rc.seconds)}
	all := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	failed := 0
	for _, w := range workloads {
		rep := workloadReport{Name: w.name}
		for _, traced := range []bool{false, true} {
			rc.traced = traced
			res, err := runWorkload(w, rc, root, exp)
			if err != nil {
				return nil, 0, err
			}
			group := spec.EndToEnd
			if traced {
				group = all
				rep.Traced = res
			} else {
				rep.Untraced = res
			}
			vals, err := pick(group, res.Metrics)
			if err != nil {
				return nil, 0, err
			}
			failed += res.Failed
			if !verbose {
				continue
			}
			if traced {
				// Tracing overhead across the two runs, beside the one the
				// traced run measured on itself.
				over := ratio(res.Metrics["wall_s"], rep.Untraced.Metrics["wall_s"]) - 1
				fmt.Printf("%-14s %-32s %14s %s\n", w.name, "(traced run wall_s vs untraced)", fmtFloat(over), "ratio")
				printMetrics(w.name, spec.PerLayer, vals)
				fmt.Printf("%-14s blocking chain of the last traced repeat:\n%s", w.name, formatChain(res.Chain))
			} else {
				printMetrics(w.name, spec.EndToEnd, vals)
				fmt.Printf("%-14s %-32s %14s %s\n", w.name, "failed_ratio",
					fmtFloat(ratio(float64(res.Failed), float64(res.Attempted))), "ratio")
			}
			reportProblems(res)
		}
		art.Workloads = append(art.Workloads, rep)
	}
	return art, failed, nil
}

// runAll is a full run: every metric printed, the artifact written, and a
// non-zero exit on any output that differs from expected.json.
func runAll(spec *benchSpec, root string, rc runConfig, outPath string) error {
	art, failed, err := measureAll(spec, root, rc, true)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchmark: wrote %s\n", outPath)
	if failed > 0 {
		return fmt.Errorf("%d operations failed or differ from expected.json", failed)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload and print its JSON result as the last line (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 makes the traced run and prints the per-layer metrics")
	scale := fs.Int("scale", 1, "divide every workload's counts by this (the smoke test uses 100)")
	out := fs.String("out", "", "artifact path for a full run (default: .bench_build/benchmark.json under the repository root)")
	spans := fs.String("spans", "", "with -workload and -trace 1: also dump every span to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two artifacts: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two artifact paths, old then new")
		}
		return compareArtifacts(spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1")
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, scale: *scale, traced: *trace != 0,
		setupRepeats: 3, setupMax: 9, minUnits: 2, spansTo: *spans}
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(root, ".bench_build", "benchmark.json")
		}
		return runAll(spec, root, rc, *out)
	}
	for _, w := range workloads {
		if w.name == *name {
			return runOne(spec, root, w, rc)
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Errorf("unknown workload %q (have %v)", *name, names)
}
