package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ltl"
	"repro/internal/vcache"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerify(t *testing.T, url string, req VerifyRequest) (*VerifyResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	httpResp, err := http.Post(url+"/v1/verify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(httpResp.Body).Decode(&eb)
		t.Fatalf("verify returned %d: %s", httpResp.StatusCode, eb.Error)
	}
	var resp VerifyResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp, httpResp
}

func memCache(t testing.TB) *vcache.Cache {
	t.Helper()
	c, err := vcache.Open(vcache.Options{MemEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// N concurrent identical requests must cost exactly one engine run: either a
// follower joins the leader's in-flight solve (singleflight), or it arrives
// after the leader finished and hits the cache. Run with -race.
func TestSingleflightConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t), MaxQueue: 64, MaxConcurrent: 4})
	req := VerifyRequest{Model: "simplified", Prop: "Inv1_0"}

	const n = 12
	var wg sync.WaitGroup
	results := make([]*VerifyResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = postVerify(t, ts.URL, req)
		}(i)
	}
	wg.Wait()

	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("%d identical concurrent requests cost %d engine runs, want exactly 1", n, runs)
	}
	want := results[0].Results[0]
	for i, r := range results {
		if len(r.Results) != 1 {
			t.Fatalf("request %d: %d results, want 1", i, len(r.Results))
		}
		got := r.Results[0]
		if got.Outcome != want.Outcome || got.Schemas != want.Schemas ||
			got.AvgLen != want.AvgLen || got.Solver != want.Solver {
			t.Fatalf("request %d verdict differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t)})
	req := VerifyRequest{Model: "simplified", Prop: "Inv2_0"}

	cold, _ := postVerify(t, ts.URL, req)
	if cold.Results[0].Cached {
		t.Fatal("first request reported as cached")
	}
	runsAfterCold := s.EngineRuns()
	warm, _ := postVerify(t, ts.URL, req)
	if !warm.Results[0].Cached {
		t.Fatal("second identical request not served from cache")
	}
	if s.EngineRuns() != runsAfterCold {
		t.Fatal("warm request triggered an engine run")
	}
	if warm.Results[0].Outcome != cold.Results[0].Outcome ||
		warm.Results[0].Schemas != cold.Results[0].Schemas ||
		warm.Results[0].Solver != cold.Results[0].Solver {
		t.Fatalf("cached verdict differs from cold verdict:\n cold %+v\n warm %+v",
			cold.Results[0], warm.Results[0])
	}
	if warm.Engine != vcache.EngineVersion {
		t.Fatalf("engine version %q, want %q", warm.Engine, vcache.EngineVersion)
	}
}

// Admission beyond MaxQueue sheds with 429 + Retry-After; draining refuses
// with 503.
func TestAdmissionSheddingAndDrain(t *testing.T) {
	s := New(Config{MaxQueue: 1})
	w1 := httptest.NewRecorder()
	release, ok := s.admit(w1)
	if !ok {
		t.Fatal("first admission refused")
	}
	w2 := httptest.NewRecorder()
	if _, ok := s.admit(w2); ok {
		t.Fatal("admission beyond MaxQueue accepted")
	}
	if w2.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", w2.Code)
	}
	if w2.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	release()
	w3 := httptest.NewRecorder()
	if release3, ok := s.admit(w3); !ok {
		t.Fatal("admission after release refused")
	} else {
		release3()
	}

	draining := New(Config{Stop: func() bool { return true }})
	w4 := httptest.NewRecorder()
	if _, ok := draining.admit(w4); ok {
		t.Fatal("draining server admitted a request")
	}
	if w4.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain status %d, want 503", w4.Code)
	}
}

// A tiny per-request deadline must cut the check via the engine's Stop hook
// and surface as a budget outcome — and budget outcomes stay out of the
// cache, so a later request with a real budget still solves.
func TestRequestDeadlineMapsToBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t)})
	resp, _ := postVerify(t, ts.URL, VerifyRequest{Model: "simplified", TimeoutMS: 1})
	budget := 0
	for _, r := range resp.Results {
		if r.Outcome == "budget" {
			budget++
			if r.Schemas != 0 || r.AvgLen != 0 || r.Cached {
				t.Fatalf("budget row carries volatile or cached fields: %+v", r)
			}
		}
	}
	if budget == 0 {
		t.Skip("machine solved every simplified property in under 1ms; nothing to assert")
	}
	// The timed-out verdicts must not have been cached.
	full, _ := postVerify(t, ts.URL, VerifyRequest{Model: "simplified", Prop: "Inv1_0"})
	if full.Results[0].Outcome == "budget" {
		t.Fatal("untimed request returned budget")
	}
	if full.Results[0].Cached {
		t.Fatal("budget outcome leaked into the cache")
	}
	_ = s
}

// TestJobsLifecycle walks the asynchronous path end to end through the
// durable queue endpoints: submit, poll, read the result, unknown id.
func TestJobsLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t), QueueDir: t.TempDir()})
	defer s.Close()
	out, code := postEnqueue(t, ts.URL, EnqueueRequest{VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_1"}})
	if code != http.StatusAccepted || out.ID == "" {
		t.Fatalf("submit: code=%d out=%+v, want 202 and a job id", code, out)
	}
	final := pollQueueJob(t, ts.URL, out.ID)
	if final.State != "done" {
		t.Fatalf("job ended %q (%s)", final.State, final.Reason)
	}
	if final.Results == nil || len(final.Results.Results) != 1 || final.Results.Results[0].Query != "Inv1_1" {
		t.Fatalf("bad job result: %+v", final.Results)
	}
	st, err := http.Get(ts.URL + "/v1/queue/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", st.StatusCode)
	}
}

// TestBadRequests: every malformed request is a 400 on the synchronous and
// the durable endpoint alike, and none of them is journaled — a bad request
// acked with 202 would only surface later as a dead letter.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDir: t.TempDir()})
	defer s.Close()
	cases := []struct {
		name string
		body string
	}{
		{"both model and ta", `{"model":"simplified","ta":"x"}`},
		{"neither", `{}`},
		{"ta without spec", `{"ta":"automaton x {}"}`},
		{"unparsable ta", `{"ta":"automaton {","spec":"p: [](locA == 0);"}`},
		{"model with unparsable spec", `{"model":"strb","spec":"p: [](;"}`},
		{"unknown model", `{"model":"nope"}`},
		{"unknown mode", `{"model":"simplified","mode":"warp"}`},
		{"unknown prop", `{"model":"simplified","prop":"NoSuchProp"}`},
		{"unknown field", `{"model":"simplified","frobnicate":1}`},
		{"garbage", `{`},
	}
	for _, path := range []string{"/v1/verify", "/v1/enqueue"} {
		for _, tc := range cases {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, tc.name, resp.StatusCode)
			}
		}
	}
	if st, dead := s.Queue().Status(), s.Queue().DeadLetters(); st.Enqueued != 0 || st.Depth != 0 || len(dead) != 0 {
		t.Errorf("bad requests reached the queue: %+v, %d dead letters", st, len(dead))
	}
}

// The singleflight key excludes deadlines, so a deadline must stay its
// caller's own: a leader whose timeout_ms runs out while it queues for the
// engine semaphore must not hand its budget row to a follower that set no
// deadline, and a follower with a tight deadline must not wait past it for a
// leader that has none. The test holds the only engine slot, so neither
// leader can start until it lets go.
func TestSingleflightDeadlineIsPerCaller(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	verify := func(timeoutMS int64) chan *VerifyResponse {
		ch := make(chan *VerifyResponse, 1)
		go func() {
			resp, _, err := s.verify(context.Background(),
				&VerifyRequest{Model: "simplified", Prop: "Inv1_0", TimeoutMS: timeoutMS})
			if err != nil {
				t.Error(err)
			}
			ch <- resp
		}()
		return ch
	}
	inFlight := func() bool {
		s.group.mu.Lock()
		defer s.group.mu.Unlock()
		return len(s.group.calls) == 1
	}
	await := func(what string, ch chan *VerifyResponse) QueryResult {
		t.Helper()
		select {
		case resp := <-ch:
			if resp == nil || len(resp.Results) != 1 {
				t.Fatalf("%s: response %+v", what, resp)
			}
			return resp.Results[0]
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never returned", what)
			return QueryResult{}
		}
	}
	waitInFlight := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !inFlight(); {
			if time.Now().After(deadline) {
				t.Fatal("leader never registered its flight")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Leader with a deadline, follower without: the follower joins while
	// the leader queues, then outlives the leader's expiry.
	s.sem <- struct{}{}
	leader := verify(150)
	waitInFlight()
	follower := verify(0)
	if got := await("tight leader", leader); got.Outcome != "budget" {
		t.Fatalf("leader with an expired deadline ended %q, want budget", got.Outcome)
	}
	<-s.sem
	if got := await("patient follower", follower); got.Outcome != "holds" {
		t.Fatalf("follower without a deadline ended %q (shared=%v), want its own holds", got.Outcome, got.Shared)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("%d engine runs, want exactly 1 (the follower's real run)", runs)
	}

	// Leader without a deadline, follower with one: the follower's wait
	// ends at its own deadline while the leader is still queued.
	s.sem <- struct{}{}
	leader = verify(0)
	waitInFlight()
	follower = verify(20)
	if got := await("tight follower", follower); got.Outcome != "budget" {
		t.Fatalf("follower with an expired deadline ended %q, want budget", got.Outcome)
	}
	<-s.sem
	if got := await("patient leader", leader); got.Outcome != "holds" {
		t.Fatalf("leader without a deadline ended %q, want holds", got.Outcome)
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	if h["status"] != "ok" || h["engine_version"] != vcache.EngineVersion {
		t.Fatalf("bad healthz body: %v", h)
	}

	m, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	if m.StatusCode != http.StatusOK {
		t.Fatalf("metricsz returned %d", m.StatusCode)
	}
	var snap map[string]any
	if err := json.NewDecoder(m.Body).Decode(&snap); err != nil {
		t.Fatalf("metricsz not JSON: %v", err)
	}

	draining, tsd := newTestServer(t, Config{Stop: func() bool { return true }})
	_ = draining
	hd, err := http.Get(tsd.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hd.Body.Close()
	if hd.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz returned %d, want 503", hd.StatusCode)
	}
}

// The daemon report must be deterministic: rows deduped by verification key
// and sorted, so the same served set yields the same deterministic section.
func TestServerReportDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t)})
	for _, prop := range []string{"Inv2_1", "Inv1_0", "Inv2_1", "Inv1_0"} {
		postVerify(t, ts.URL, VerifyRequest{Model: "simplified", Prop: prop})
	}
	rep := s.Report("holistic-serve", 0, false)
	qs := rep.Deterministic.Queries
	if len(qs) != 2 {
		t.Fatalf("report has %d rows, want 2 (deduped): %+v", len(qs), qs)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i-1].Query > qs[i].Query {
			t.Fatalf("report rows not sorted: %q before %q", qs[i-1].Query, qs[i].Query)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("server report failed validation: %v", err)
	}
}

func TestVerifyRequestTAInline(t *testing.T) {
	// An inline TA + LTL spec payload (the bundled strb pair, shipped as
	// text) must verify exactly like a spec file fed to the local CLI.
	taText, err := os.ReadFile(filepath.Join("..", "..", "specs", "strb.ta"))
	if err != nil {
		t.Fatal(err)
	}
	specText, err := os.ReadFile(filepath.Join("..", "..", "specs", "strb.ltl"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, _ := postVerify(t, ts.URL, VerifyRequest{TA: string(taText), Spec: string(specText), Prop: "unforgeability"})
	if len(resp.Results) != 1 {
		t.Fatalf("inline TA produced %d results, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Model != "st-reliable-broadcast" || r.Query != "unforgeability" {
		t.Fatalf("row labeled %s/%s, want st-reliable-broadcast/unforgeability", r.Model, r.Query)
	}
	if r.Outcome != "holds" {
		t.Fatalf("unforgeability outcome %q, want holds", r.Outcome)
	}
}

// A bundled model with a spec checks exactly the spec's properties, compiled
// against the model's automaton and labeled with the model's name; a spec
// that does not parse is refused, never dropped in favour of the bundled
// queries.
func TestResolveModelSpec(t *testing.T) {
	const src = "unforgeability: [](locV1 == 0) -> [](locAC == 0);\n"
	r, err := Resolve(&VerifyRequest{Model: "strb", Spec: src})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := BuiltinModel("strb")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := ltl.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ltl.CompileFile(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Label != "strb" || !reflect.DeepEqual(r.Queries, want) {
		t.Errorf("resolved %s with %d queries, want strb with exactly the compiled %q", r.Label, len(r.Queries), want[0].Name)
	}

	for _, bad := range []string{"p: [](;", "p: [](noSuchLoc == 0);"} {
		if _, err := Resolve(&VerifyRequest{Model: "strb", Spec: bad}); err == nil {
			t.Errorf("spec %q: resolved without error", bad)
		}
	}
}
