package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("smt", "lp_checks")
	if got := r.Counter("smt", "lp_checks"); got != c {
		t.Error("second lookup returned a different counter")
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Errorf("counter = %d, want 42", c.Load())
	}

	g := r.Gauge("schema", "queue_depth")
	g.Set(7)
	g.Set(3)
	if g.Load() != 3 {
		t.Errorf("gauge = %d, want 3 (last write wins)", g.Load())
	}

	h := r.Histogram("schema", "fold_ns")
	h.Observe(100)

	snap := r.Snapshot()
	if snap.Counters["smt"]["lp_checks"] != 42 {
		t.Errorf("snapshot counter = %d, want 42", snap.Counters["smt"]["lp_checks"])
	}
	if snap.Gauges["schema"]["queue_depth"] != 3 {
		t.Errorf("snapshot gauge = %d, want 3", snap.Gauges["schema"]["queue_depth"])
	}
	if snap.Histograms["schema"]["fold_ns"].Count != 1 {
		t.Errorf("snapshot histogram count = %d, want 1", snap.Histograms["schema"]["fold_ns"].Count)
	}
	if got := r.Subsystems(); len(got) != 2 || got[0] != "schema" || got[1] != "smt" {
		t.Errorf("subsystems = %v, want [schema smt]", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter load != 0")
	}
	var g *Gauge
	g.Set(1)
	if g.Load() != 0 {
		t.Error("nil gauge load != 0")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
	var tr *Tracer
	tr.Emit("k", "n", nil)
	tr.Start("k", "n")(nil)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer not empty")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestCounterConcurrency(t *testing.T) {
	c := NewRegistry().Counter("x", "y")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	// v <= 0 lands in bucket 0 (Lt 1), 1 in bucket 1 (Lt 2), 100 in the
	// [64,128) bucket (Lt 128).
	h.Observe(0)
	h.Observe(1)
	h.Observe(100)
	snap := h.Snapshot()
	if snap.Count != 3 || snap.Sum != 101 {
		t.Fatalf("count=%d sum=%d, want 3/101", snap.Count, snap.Sum)
	}
	want := map[int64]int64{1: 1, 2: 1, 128: 1}
	for _, b := range snap.Buckets {
		if want[b.Lt] != b.Count {
			t.Errorf("bucket lt=%d count=%d, want %d", b.Lt, b.Count, want[b.Lt])
		}
		delete(want, b.Lt)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit("k", fmt.Sprintf("e%d", i), nil)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want ring capacity 4", len(evs))
	}
	// Oldest first: e2..e5 survive, e0/e1 were overwritten.
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", i+2); ev.Name != want {
			t.Errorf("events[%d] = %s, want %s", i, ev.Name, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTracerSpanAndJSONL(t *testing.T) {
	tr := NewTracer(8)
	end := tr.Start("query", "BV-Just0")
	time.Sleep(time.Millisecond)
	end(map[string]int64{"schemas": 65})
	tr.Emit("schema", "solve", map[string]int64{"index": 0})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + trailer", len(lines))
	}
	if lines[0].Kind != "query" || lines[0].Dur <= 0 || lines[0].Attrs["schemas"] != 65 {
		t.Errorf("span event wrong: %+v", lines[0])
	}
	last := lines[len(lines)-1]
	if last.Kind != "trace_end" || last.Attrs["events"] != 2 || last.Attrs["dropped"] != 0 {
		t.Errorf("trailer wrong: %+v", last)
	}
}

func TestReportValidate(t *testing.T) {
	good := &Report{Tool: "t", Deterministic: Deterministic{Queries: []QueryMetrics{
		{Model: "bv", Query: "BV-Just0", Mode: "full", Outcome: "holds", Schemas: 65, AvgLen: 11, Solver: SolverMetrics{LPChecks: 65}},
		{Model: "naive", Query: "Inv1_0", Mode: "full", Outcome: "budget"},
	}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good report rejected: %v", err)
	}

	bad := []*Report{
		{},                         // no tool
		{Tool: "t"},                // no deterministic payload
		{Tool: "t", Partial: true}, // skeleton
		{Tool: "t", Deterministic: Deterministic{Queries: []QueryMetrics{{Model: "m", Query: "q", Outcome: "maybe"}}}},
		{Tool: "t", Deterministic: Deterministic{Queries: []QueryMetrics{{Model: "m", Query: "q", Outcome: "budget", Schemas: 9}}}},
		{Tool: "t", Deterministic: Deterministic{Queries: []QueryMetrics{{Model: "m", Query: "q", Outcome: "holds", Schemas: -1}}}},
		{Tool: "t", Deterministic: Deterministic{Campaign: &CampaignMetrics{Kind: "mayhem", Runs: 1}}},
		{Tool: "t", Deterministic: Deterministic{Campaign: &CampaignMetrics{Kind: "chaos", Runs: 1, Decided: 2}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d accepted", i)
		}
	}
}

func TestReportRoundTripAndDeterministicJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	rep := &Report{Tool: "test", Deterministic: Deterministic{
		Campaign: &CampaignMetrics{Kind: "chaos", Runs: 10, Decided: 10, Events: map[string]int{"drop": 3}},
	}}
	rep.Observational.Workers = 4
	rep.Observational.GeneratedAt = "2026-08-05T00:00:00Z"
	if err := writeReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}

	// Observational differences must not leak into the deterministic bytes.
	other := &Report{Tool: "test", Deterministic: Deterministic{
		Campaign: &CampaignMetrics{Kind: "chaos", Runs: 10, Decided: 10, Events: map[string]int{"drop": 3}},
	}}
	other.Observational.Workers = 1
	other.Observational.GeneratedAt = "2020-01-01T00:00:00Z"
	a, err := got.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("deterministic sections differ:\n%s\nvs\n%s", a, b)
	}
}

func TestSinkFailFastAndSkeleton(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope", "out")
	if _, err := OpenSink(SinkOptions{Tool: "t", TracePath: missing}); err == nil {
		t.Error("bad trace path accepted")
	}
	if _, err := OpenSink(SinkOptions{Tool: "t", ReportPath: missing}); err == nil {
		t.Error("bad report path accepted")
	}

	// A bad pprof address must remove the report skeleton written just before.
	report := filepath.Join(dir, "rep.json")
	if _, err := OpenSink(SinkOptions{Tool: "t", ReportPath: report, PprofAddr: "256.256.256.256:1"}); err == nil {
		t.Fatal("bad pprof address accepted")
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Error("skeleton survived a failed OpenSink")
	}
}

// TestFlagsFailFast: the observability flags both CLIs register validate
// every output before any work. A bad -report or -trace path fails with a
// one-line diagnostic naming the output, and an already-bound -pprof port
// fails after removing the report skeleton written moments earlier: a run
// that never started leaves no artifact behind.
func TestFlagsFailFast(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "out")
	report := filepath.Join(dir, "report.json")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-report", missing}, "obs: report: "},
		{[]string{"-trace", missing}, "obs: trace: "},
		{[]string{"-report", report, "-pprof", ln.Addr().String()}, "obs: pprof listen "},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := f.Open("t")
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("Open with %v: err = %v, want one line starting %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("report skeleton survived a failed startup (stat err %v)", err)
	}
}

func TestSinkSkeletonThenFlush(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "rep.json")
	trace := filepath.Join(dir, "tr.jsonl")
	sink, err := OpenSink(SinkOptions{Tool: "t", ReportPath: report, TracePath: trace, TraceEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// Before Flush the file must hold a valid partial skeleton — and a
	// skeleton must fail Validate, so no consumer mistakes it for results.
	skel, err := ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if !skel.Partial {
		t.Error("skeleton not marked partial")
	}
	if err := skel.Validate(); err == nil {
		t.Error("skeleton passed Validate")
	}

	sink.Tracer.Emit("k", "n", nil)
	rep := &Report{Tool: "t", Deterministic: Deterministic{Campaign: &CampaignMetrics{Kind: "chaos", Runs: 1, Decided: 1}}}
	if err := sink.Flush(rep); err != nil {
		t.Fatal(err)
	}
	final, err := ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Validate(); err != nil {
		t.Errorf("flushed report invalid: %v", err)
	}
	if final.Observational.GeneratedAt == "" {
		t.Error("flush did not stamp GeneratedAt")
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "trace_end") {
		t.Error("flushed trace has no trace_end trailer")
	}
}

func TestServePprof(t *testing.T) {
	addr, stop, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", resp.StatusCode)
	}
	// The bound port must be rejected on a second bind.
	if _, _, err := ServePprof(addr); err == nil {
		t.Error("double bind accepted")
	}
}

func TestStartProgress(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, 5*time.Millisecond, func() string { return "tick" }, nil)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tick") {
		t.Errorf("no progress output: %q", out)
	}

	// A true stop hook silences the loop.
	buf.Reset()
	stop = StartProgress(w, 5*time.Millisecond, func() string { return "tick" }, func() bool { return true })
	time.Sleep(20 * time.Millisecond)
	stop()
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if out != "" {
		t.Errorf("progress printed after stop hook fired: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRateLine(t *testing.T) {
	line := RateLine("seeds", 50, 200, 10*time.Second)
	for _, want := range []string{"50/200", "seeds", "25%", "5.0/s", "ETA 30s"} {
		if !strings.Contains(line, want) {
			t.Errorf("rate line %q missing %q", line, want)
		}
	}
	totalless := RateLine("schemas", 10, 0, 2*time.Second)
	if !strings.Contains(totalless, "10 schemas") || !strings.Contains(totalless, "5.0/s") {
		t.Errorf("totalless rate line wrong: %q", totalless)
	}
}
