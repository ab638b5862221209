package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it. That file is the
// only place names, units, directions and bounds are written down; the
// program looks units up there and refuses to print a name it does not find.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				return nil, fmt.Errorf("BENCHMARK.json: bad or repeated metric name %q", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return &s, nil
}

// findRoot walks up from the working directory to the module root, so the
// program runs the same from the checkout root (`go run ./benchmark`) and
// from its own directory (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "specs")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no module root with specs/ above the working directory")
		}
		dir = parent
	}
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the printed metric set for one group of specs from measured
// values. A measured name the spec lacks, or a spec name never measured, is
// a defect in the benchmark and fails the run.
func pick(specs []metricSpec, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// spread is the distance between the quartiles as a share of the median,
// with the quartiles Python's statistics.quantiles(n=4) gives (exclusive
// method), so the numbers here match the ones the driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	sp := (at(3) - at(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapPeaks are the high-water marks one repeat reached: objects is every
// byte of heap not yet freed (runtime.MemStats.HeapAlloc, the figure
// `dbftsim -bench-sim` samples), live what the last collection found
// reachable.
type heapPeaks struct{ objects, live uint64 }

// heapSampler polls the runtime's heap metrics every 5 ms (the
// `dbftsim -bench-sim` idiom, through runtime/metrics so that sampling does
// not stop the world) and keeps the high-water marks. Stop it, then read
// them.
func heapSampler() (stop func() heapPeaks) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	var peak heapPeaks
	sample := func() {
		metrics.Read(samples)
		peak.objects = max(peak.objects, samples[0].Value.Uint64())
		peak.live = max(peak.live, samples[1].Value.Uint64())
	}
	sample()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() heapPeaks {
		close(done)
		wg.Wait()
		sample()
		return peak
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// Rusage would show as a zero metric, which the driver refuses.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the most memory the operating system has had to back for
// this process so far (Linux reports ru_maxrss in KiB). Heap high-water marks
// of a 20 MiB heap swing by half with collector timing; what the OS saw is
// both steadier and what an operator provisioning the process sees.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS hands freed memory back to the operating system and asks the
// kernel to restart its high-water mark from what is left, so that in a full
// run each workload's peak_rss_mb is its own and not the largest so far.
// Where /proc/self/clear_refs is not writable the mark stays cumulative; a
// one-workload run, which is what the driver makes, reads the same either way.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
