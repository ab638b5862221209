package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the artifact's shape against BENCHMARK.json — so `go test ./...`
// guards the benchmark without running it at size.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	rc := runConfig{seed: 1, seconds: 0, scale: 100, setupRepeats: 1, minUnits: 2}
	// measureAll itself fails on a metric that is measured but not declared,
	// or declared but not measured.
	art, failed, err := measureAll(spec, root, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("%d operations failed", failed)
	}
	h := art.Header
	if h.EngineVersion == "" || h.GitCommit == "" || h.NumCPU < 1 || h.GoMaxProcs < 1 || h.GoVersion == "" || h.Seed != 1 || h.GeneratedAt == "" {
		t.Errorf("incomplete header: %+v", h)
	}
	if len(art.Workloads) != len(spec.Workloads) {
		t.Fatalf("artifact has %d workloads, want %d", len(art.Workloads), len(spec.Workloads))
	}
	for _, w := range art.Workloads {
		for _, r := range []*runResult{w.Untraced, w.Traced} {
			if r == nil {
				t.Fatalf("%s: a run is missing", w.Name)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: failed %d of %d: %v", w.Name, r.Failed, r.Attempted, r.Problems)
			}
			for _, m := range spec.EndToEnd {
				if v := r.Metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, v)
				}
			}
		}
		if want := len(spec.EndToEnd) + len(spec.PerLayer); len(w.Traced.Metrics) != want {
			t.Errorf("%s: traced run has %d metrics, BENCHMARK.json declares %d", w.Name, len(w.Traced.Metrics), want)
		}
		if len(w.Untraced.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: untraced run has %d metrics, want %d", w.Name, len(w.Untraced.Metrics), len(spec.EndToEnd))
		}
		// The blocking chain partitions the root span: self times sum to it.
		chain := w.Traced.Chain
		if len(chain) == 0 {
			t.Errorf("%s: no blocking chain", w.Name)
			continue
		}
		sum := 0.0
		for _, n := range chain {
			sum += n.SelfS
		}
		if root := chain[0].TotalS; math.Abs(sum-root) > 0.02*root {
			t.Errorf("%s: chain self times sum to %v, root span took %v", w.Name, sum, root)
		}
	}
}

// TestBlockingChain pins the decomposition on a hand-built trace: two
// overlapping children, of which the later-finishing one blocks.
func TestBlockingChain(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 70},
	}
	got := map[string]chainNode{}
	for _, n := range tr.blockingChain(spanRef{t: tr, id: 1}) {
		got[n.Path] = n
	}
	want := map[string][2]float64{ // total, self in ns
		"unit":         {100, 20}, // 90..100 and 0..10
		"unit > b":     {50, 30},  // 40..90 less c
		"unit > b > c": {20, 20},
		"unit > a":     {30, 30}, // 10..40, until b takes over
	}
	for path, w := range want {
		n, ok := got[path]
		if !ok || math.Abs(n.TotalS*1e9-w[0]) > 1e-6 || math.Abs(n.SelfS*1e9-w[1]) > 1e-6 {
			t.Errorf("%s: got %+v, want total %v self %v ns", path, n, w[0], w[1])
		}
	}
	if len(got) != len(want) {
		t.Errorf("chain has %d nodes, want %d: %+v", len(got), len(want), got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	m := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "unchanged"},
		{"slower", steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "regressed"},
		{"faster", steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "improved"},
		{"noisy", steady, []float64{0.7, 1.3, 1.0, 0.8, 1.25}, "unresolved"},
	} {
		if got := judge(m, c.old, c.new).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
