package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vcache"
)

func postEnqueue(t *testing.T, url string, req EnqueueRequest) (EnqueueResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	httpResp, err := http.Post(url+"/v1/enqueue", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var out EnqueueResponse
	if httpResp.StatusCode == http.StatusOK || httpResp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, httpResp.StatusCode
}

func pollQueueJob(t *testing.T, url, id string) EnqueueResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		httpResp, err := http.Get(url + "/v1/queue/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out EnqueueResponse
		err = json.NewDecoder(httpResp.Body).Decode(&out)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.State == "done" || out.State == "dead" {
			return out
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("queue job %s never reached a terminal state", id)
	return EnqueueResponse{}
}

// sameVerdicts compares the deterministic slice of two result sets — what
// must be identical between a queued and a synchronous run.
func sameVerdicts(t *testing.T, got, want *VerifyResponse) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("missing results: got=%v want=%v", got != nil, want != nil)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Model != w.Model || g.Query != w.Query || g.Mode != w.Mode || g.Outcome != w.Outcome ||
			g.Schemas != w.Schemas || g.AvgLen != w.AvgLen || g.Solver != w.Solver || g.CEText != w.CEText {
			t.Errorf("result %d diverges:\nqueued %+v\nsync   %+v", i, g, w)
		}
	}
}

func TestEnqueueDrainsToSameVerdictAsSync(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t), QueueDir: t.TempDir()})
	defer s.Close()
	req := EnqueueRequest{
		VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"},
		Tenant:        "alpha",
	}
	out, code := postEnqueue(t, ts.URL, req)
	if code != http.StatusAccepted || out.ID == "" {
		t.Fatalf("enqueue: code=%d out=%+v", code, out)
	}
	final := pollQueueJob(t, ts.URL, out.ID)
	if final.State != "done" {
		t.Fatalf("job ended %q", final.State)
	}
	sync, _ := postVerify(t, ts.URL, req.VerifyRequest)
	sameVerdicts(t, final.Results, sync)
}

func TestEnqueueCacheDedupShortCircuits(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t), QueueDir: t.TempDir()})
	defer s.Close()
	req := EnqueueRequest{VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"}}
	// Warm the cache synchronously, then enqueue the same request: every
	// verdict is content-addressed already, so no backlog is spent.
	postVerify(t, ts.URL, req.VerifyRequest)
	out, code := postEnqueue(t, ts.URL, req)
	if code != http.StatusOK || out.State != "done" || out.Results == nil {
		t.Fatalf("warm enqueue not short-circuited: code=%d out=%+v", code, out)
	}
	if out.ID != "" {
		t.Errorf("short-circuited enqueue minted a job ID %q", out.ID)
	}
	for _, r := range out.Results.Results {
		if !r.Cached {
			t.Errorf("short-circuit result %s/%s not served from cache", r.Model, r.Query)
		}
	}
	// Force bypasses the short-circuit: a real queue job is minted.
	req.Force = true
	req.Tag = "forced-1"
	out, code = postEnqueue(t, ts.URL, req)
	if code != http.StatusAccepted || out.ID == "" {
		t.Fatalf("forced enqueue: code=%d out=%+v", code, out)
	}
	if final := pollQueueJob(t, ts.URL, out.ID); final.State != "done" {
		t.Fatalf("forced job ended %q", final.State)
	}
}

func TestEnqueueDegradesWhenQueueDirUnusable(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The queue directory sits under a regular file: journal open fails, the
	// server must come up degraded and serve enqueues synchronously.
	s, ts := newTestServer(t, Config{Cache: memCache(t), QueueDir: filepath.Join(blocker, "q")})
	defer s.Close()
	if s.Queue() != nil {
		t.Fatal("queue opened under a file path")
	}
	out, code := postEnqueue(t, ts.URL, EnqueueRequest{
		VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"},
	})
	if code != http.StatusOK || out.State != "done" || out.Degraded == "" || out.Results == nil {
		t.Fatalf("degraded enqueue: code=%d out=%+v", code, out)
	}

	var status queueStatusBody
	httpResp, err := http.Get(ts.URL + "/v1/queue/status")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if err := json.NewDecoder(httpResp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Enabled || status.Degraded == "" {
		t.Errorf("queue status %+v, want disabled with a degraded reason", status)
	}
}

// TestEnqueueRestartResumesBacklog is the crash-safe-resume contract at the
// service layer: jobs accepted by one daemon incarnation and never run are
// re-run by the next one, with verdicts identical to a synchronous check.
func TestEnqueueRestartResumesBacklog(t *testing.T) {
	queueDir := t.TempDir()
	cacheDir := t.TempDir()
	openCache := func() *vcache.Cache {
		c, err := vcache.Open(vcache.Options{Dir: cacheDir, MemEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Incarnation 1: paused consumers, so accepted jobs stay unfinished.
	s1, ts1 := newTestServer(t, Config{Cache: openCache(), QueueDir: queueDir, QueueConsumers: -1})
	var ids []string
	for i := 0; i < 3; i++ {
		out, code := postEnqueue(t, ts1.URL, EnqueueRequest{
			VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"},
			Tenant:        "alpha",
			Tag:           fmt.Sprintf("restart-%d", i),
			Force:         true,
		})
		if code != http.StatusAccepted {
			t.Fatalf("enqueue %d: code=%d out=%+v", i, code, out)
		}
		ids = append(ids, out.ID)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close incarnation 1: %v", err)
	}
	ts1.Close()

	// Incarnation 2 on the same directories replays and drains the backlog.
	s2, ts2 := newTestServer(t, Config{Cache: openCache(), QueueDir: queueDir})
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s2.Queue().WaitIdle(ctx); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	sync, _ := postVerify(t, ts2.URL, VerifyRequest{Model: "simplified", Prop: "Inv1_0"})
	for _, id := range ids {
		final := pollQueueJob(t, ts2.URL, id)
		if final.State != "done" {
			t.Fatalf("job %s ended %q after restart", id, final.State)
		}
		sameVerdicts(t, final.Results, sync)
	}
}

func TestEnqueueTenantDepthCap(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Cache:            memCache(t),
		QueueDir:         t.TempDir(),
		QueueConsumers:   -1, // nothing drains: depth only grows
		QueueTenantDepth: 2,
	})
	defer s.Close()
	mk := func(tenant, tag string) (EnqueueResponse, int) {
		return postEnqueue(t, ts.URL, EnqueueRequest{
			VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"},
			Tenant:        tenant, Tag: tag, Force: true,
		})
	}
	for i := 0; i < 2; i++ {
		if _, code := mk("greedy", fmt.Sprintf("g%d", i)); code != http.StatusAccepted {
			t.Fatalf("enqueue %d: code=%d", i, code)
		}
	}
	if _, code := mk("greedy", "g2"); code != http.StatusTooManyRequests {
		t.Errorf("over-cap enqueue: code=%d, want 429", code)
	}
	if _, code := mk("modest", "m0"); code != http.StatusAccepted {
		t.Errorf("other tenant blocked by greedy's cap: code=%d", code)
	}
}

func TestMetricszExposesQueueGauges(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t), QueueDir: t.TempDir(), QueueConsumers: -1})
	defer s.Close()
	out, code := postEnqueue(t, ts.URL, EnqueueRequest{
		VerifyRequest: VerifyRequest{Model: "simplified", Prop: "Inv1_0"},
		Tenant:        "metrics-tenant", Tag: "m0", Force: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("enqueue: code=%d out=%+v", code, out)
	}
	httpResp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(httpResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Gauges["queue"]; !ok {
		t.Errorf("no queue gauges in /metricsz: %v", snap.Gauges)
	}
	if got := snap.Gauges["queue_tenant"]["metrics-tenant"]; got < 1 {
		t.Errorf("per-tenant gauge = %d, want >= 1 (gauges: %v)", got, snap.Gauges["queue_tenant"])
	}
	if _, ok := snap.Counters["queue"]["enqueued"]; !ok {
		t.Errorf("no queue counters in /metricsz: %v", snap.Counters)
	}
}
