package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// env is what a workload's set-up sees: the seed its inputs derive from, the
// size divisor, the repository root (for specs/) and a private scratch
// directory under the checkout.
type env struct {
	seed  int64
	scale int
	root  string
	tmp   string
	exp   *expected
}

// div scales a count, keeping at least floor.
func (e *env) div(count, floor int) int { return max(floor, count/e.scale) }

// smoke reports the scale at which a workload may also drop its heaviest
// inputs, so that `go test` runs all six in a few seconds.
func (e *env) smoke() bool { return e.scale >= 16 }

// workload is one named set of inputs. setup does everything that is not
// timed — parse, build, start servers, warm up — and returns the instance
// whose unit method is one repeat of the workload's fixed work.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

type instance interface {
	// unit runs one repeat under root, the repeat's root span (inert on
	// untraced repeats).
	unit(root spanRef) (*unitOut, error)
	// probes times single public calls of the layers this workload rests
	// on. It runs once, in the traced run only, after the repeats.
	probes(layers map[string]float64) error
	close()
}

// unitOut is what one repeat reports.
type unitOut struct {
	wallS    float64 // time to the answer a user of this workload waits for
	ops      float64 // operations behind ops_per_s ...
	opsWallS float64 // ... and the interval they took
	// attempted counts operations, failed those that errored, were refused,
	// or whose output differs from expected.json.
	attempted, failed int
	problems          []string
	// layers holds this repeat's per-layer numbers; exact the counts that
	// must come out identical on every repeat of one seed.
	layers map[string]float64
	exact  map[string]int64
	// smtExact marks a repeat that solved at one worker, whose smt.* counter
	// deltas therefore belong to the exact counts too.
	smtExact bool
	// check, when set, finishes checking the repeat's outputs after the
	// clocks have stopped (work the user of the workload would not pay).
	check func(out *unitOut)
}

func (u *unitOut) fail(format string, args ...any) {
	u.failed++
	if len(u.problems) < 8 {
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	seed         int64
	seconds      float64
	scale        int
	traced       bool
	setupRepeats int
	setupMax     int
	minUnits     int
	spansTo      string // dump raw spans here (traced run)
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Seed      int64                `json:"seed"`
	Scale     int                  `json:"scale"`
	Units     int                  `json:"units"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Exact     map[string]int64     `json:"exact,omitempty"`
	Chain     []chainNode          `json:"blocking_chain,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 16 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// counterDelta is the increase of every obs.Default counter between two
// snapshots, keyed "subsystem.name".
func counterDelta(before, after obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for sub, m := range after.Counters {
		for name, v := range m {
			out[sub+"."+name] = v - before.Counters[sub][name]
		}
	}
	return out
}

// runWorkload sets the workload up (several times, for a steady setup_s),
// then repeats its unit of work until the measuring time is used, and folds
// the repeats into medians. On a traced run odd repeats carry the tracer and
// even ones do not, so the run measures its own tracing overhead on the same
// inputs; the per-layer numbers come from the traced repeats.
func runWorkload(w workload, rc runConfig, root string, exp *expected) (*runResult, error) {
	tmp := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: rc.seed, scale: max(1, rc.scale), root: root, tmp: tmp, exp: exp}

	res := &runResult{Workload: w.name, Traced: rc.traced, Seed: rc.seed, Scale: e.scale,
		Metrics: map[string]float64{}, Samples: map[string][]float64{}}

	resetPeakRSS()
	var inst instance
	var setups []float64
	var parse, compile time.Duration
	// At least setupRepeats set-ups; a set-up of a tenth of a second is
	// repeated further, up to setupMax times within a second in all, so that
	// its median is no noisier than that of a set-up that takes a second.
	setupBegan := time.Now()
	for i := 0; i < max(1, rc.setupRepeats) || (i < rc.setupMax && time.Since(setupBegan) < time.Second); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		// Every workload's set-up starts from the shipped spec files: they
		// are a protocol designer's inputs.
		var err error
		if parse, compile, err = parseSpecs(root); err == nil {
			inst, err = w.setup(e)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	var (
		walls, opsRates         []float64
		tracedWalls, plainWalls []float64
		layerSamples            = map[string][]float64{}
		lastRoot                spanRef
		unitTimes               []float64
		mem0, mem1              runtime.MemStats
	)
	began := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(began).Seconds()
		if i >= rc.minUnits && elapsed+median(unitTimes)/2 >= rc.seconds {
			break
		}
		utr := tr
		if rc.traced && i%2 == 0 {
			utr = nil
		}
		runtime.GC()
		runtime.ReadMemStats(&mem0)
		snap0 := obs.Default.Snapshot()
		stopHeap := heapSampler()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		rootSpan := utr.start(spanRef{}, int64(i+1), "unit")
		out, err := inst.unit(rootSpan)
		rootSpan.end()
		unitWall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		peak := stopHeap()
		if err != nil {
			return nil, fmt.Errorf("%s: repeat %d: %w", w.name, i, err)
		}
		runtime.ReadMemStats(&mem1)
		delta := counterDelta(snap0, obs.Default.Snapshot())
		if out.check != nil {
			out.check(out)
		}
		unitTimes = append(unitTimes, time.Since(t0).Seconds())

		res.Units++
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Problems = append(res.Problems, out.problems...)
		walls = append(walls, out.wallS)
		opsRates = append(opsRates, ratio(out.ops, out.opsWallS))
		if utr != nil {
			tracedWalls = append(tracedWalls, unitWall)
			lastRoot = rootSpan
		} else {
			plainWalls = append(plainWalls, unitWall)
		}

		// Exact counts: the first repeat fixes them, later ones must agree.
		if out.smtExact {
			for _, name := range smtCounters {
				out.exact[name] = delta[name]
			}
		}
		for name, v := range out.exact {
			if res.Exact == nil {
				res.Exact = map[string]int64{}
			}
			if prev, ok := res.Exact[name]; ok && prev != v {
				res.problem("%s repeated as %d after %d on the same seed", name, v, prev)
			} else if !ok {
				res.Exact[name] = v
			}
		}
		if utr != nil {
			out.layers["taformat.parse_ms"] = ms(parse)
			out.layers["ltl.compile_ms"] = ms(compile)
			addRuntimeLayers(out.layers, &mem0, &mem1)
			out.layers["runtime.cpu_s"] = cpu
			out.layers["runtime.peak_heap_mb"] = float64(peak.objects) / (1 << 20)
			out.layers["runtime.peak_live_mb"] = float64(peak.live) / (1 << 20)
			addCounterLayers(out.layers, delta)
			for name, v := range out.layers {
				layerSamples[name] = append(layerSamples[name], v)
			}
		}
	}

	res.Metrics["setup_s"] = median(setups)
	res.Metrics["wall_s"] = median(walls)
	res.Metrics["ops_per_s"] = median(opsRates)
	res.Metrics["peak_rss_mb"] = peakRSSMiB()
	res.Samples["setup_s"] = setups
	res.Samples["wall_s"] = walls
	res.Samples["ops_per_s"] = opsRates
	res.Samples["peak_rss_mb"] = []float64{res.Metrics["peak_rss_mb"]}

	if rc.traced {
		layers := map[string]float64{}
		for name, xs := range layerSamples {
			layers[name] = median(xs)
		}
		if err := inst.probes(layers); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		layers["trace.spans"] = float64(tr.count())
		layers["trace.overhead_ratio"] = ratio(median(tracedWalls), median(plainWalls)) - 1
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		layers["runtime.gc_cpu_fraction"] = mem.GCCPUFraction
		for name, v := range layers {
			res.Metrics[name] = v
		}
		res.Chain = tr.blockingChain(lastRoot)
		if rc.spansTo != "" {
			f, err := os.Create(rc.spansTo)
			if err != nil {
				return nil, err
			}
			if err := tr.writeJSONL(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(res.Problems)
	return res, nil
}

// addRuntimeLayers records what the Go runtime did during one repeat.
func addRuntimeLayers(layers map[string]float64, before, after *runtime.MemStats) {
	layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	layers["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// smtCounters are the solver's obs counters, reported under their own names;
// at one worker they repeat exactly.
var smtCounters = []string{"smt.lp_checks", "smt.pivots", "smt.rebuilds", "smt.bb_nodes", "smt.case_splits", "smt.lazy_clones"}

// addCounterLayers maps the program's own counters (obs.Default deltas over
// one repeat) onto per-layer metric names.
func addCounterLayers(layers map[string]float64, d map[string]int64) {
	for _, name := range smtCounters {
		layers[name] = float64(d[name])
	}
	for metric, counter := range map[string]string{
		"service.engine_runs":    "service.engine_runs",
		"service.shed":           "service.shed",
		"queue.fsync_batches":    "queue.fsync_batches",
		"queue.retries":          "queue.retries",
		"queue.dead":             "queue.dead_lettered",
		"cluster.shards_claimed": "cluster.shards_claimed",
		"cluster.shards_done":    "cluster.shards_done",
		"cluster.reissues":       "cluster.shards_reissued",
	} {
		layers[metric] = float64(d[counter])
	}
	solveS := layers["schema.solve_s"] + layers["schema.solve_range_s"]
	schemas := layers["schema.schemas"] + layers["schema.contexts"]
	layers["smt.pivots_per_schema"] = ratio(layers["smt.pivots"], schemas)
	layers["smt.us_per_pivot"] = ratio(solveS*1e6, layers["smt.pivots"])
	layers["smt.rebuild_ratio"] = ratio(layers["smt.rebuilds"], layers["smt.lp_checks"])
	layers["queue.jobs_per_fsync"] = ratio(float64(d["queue.enqueued"]), layers["queue.fsync_batches"])
	layers["network.useful_ratio"] = ratio(layers["network.delivered"], layers["network.enqueued"])
}
