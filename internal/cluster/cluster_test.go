package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/wal"
)

// toyTA is a deliberately broken automaton whose BAD location is reachable
// through one guard unlock: full enumeration yields exactly two contexts
// ([] and [x>=1]) with a certified Sat at preorder index 1 — the cheapest
// possible full-mode Violated, used to exercise the counterexample wire
// round-trip (encode → re-certify → fold) end to end.
const toyTA = `automaton toy {
  parameters n, t, f;
  resilience n >= 3*t + 1, t >= f, f >= 0, t >= 1;
  correct n - f;
  shared x;
  initial A, Z;
  locations B, BAD;

  rule r1: A -> B do x += 1;
  rule r2: B -> BAD when x >= 1;
  self B;
  self BAD;
}`

// The premise pins the unused initial location Z empty (the compiler wants
// safety properties as implications); the conclusion is plainly violated.
const toySpec = `bad_unreach: [](locZ == 0) -> [](locBAD == 0);`

// localReference computes the single-box `-j N` result the cluster must
// reproduce byte-identically.
func localReference(t *testing.T, p JobPayload) (schema.Result, string) {
	t.Helper()
	a, label, q, err := p.Resolve()
	if err != nil {
		t.Fatalf("resolving payload: %v", err)
	}
	eng, err := schema.New(a, schema.Options{
		Mode:       schema.FullEnumeration,
		MaxSchemas: p.MaxSchemas,
		Workers:    runtime.NumCPU(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Check(q)
	if err != nil {
		t.Fatalf("local reference check: %v", err)
	}
	return res, label
}

// serveCoordinator exposes a coordinator over a real TCP listener.
func serveCoordinator(t *testing.T, c *Coordinator) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := service.HardenServer(&http.Server{Handler: c.Handler()})
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

// solveClaim does a worker's part by hand: unpack the claimed contexts, solve
// them and pack the records for a report.
func solveClaim(t *testing.T, eng *schema.Engine, plan *schema.FullPlan, cr *ClaimResponse) []byte {
	t.Helper()
	ctxs, err := unpackContexts(cr.Contexts, len(plan.AlphabetKeys()))
	if err != nil {
		t.Fatalf("claimed contexts: %v", err)
	}
	recs, _, err := plan.SolveRange(ctxs, cr.Base, 2, nil)
	if err != nil {
		t.Fatalf("solving shard: %v", err)
	}
	return packRecords(eng.TA(), recs)
}

func startWorker(t *testing.T, base, id string, threads int) (*Worker, context.CancelFunc) {
	t.Helper()
	w := &Worker{
		Coordinator:  base,
		ID:           id,
		Workers:      threads,
		PollInterval: 10 * time.Millisecond,
		Client: &service.HTTPClient{
			MaxAttempts: 3, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 20 * time.Millisecond, RetryTransport: true,
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return w, cancel
}

// The headline guarantee on the happy path: a 3-worker cluster reproduces
// the single-box result byte for byte (report row + counterexample), for a
// Holds query and for a Violated one.
func TestClusterMatchesLocal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload JobPayload
	}{
		{"bv-holds", JobPayload{Model: "bv", Prop: "BV-Just0"}},
		{"toy-violated", JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, label := localReference(t, tc.payload)
			c, err := New(Config{
				LeaseTTL:       time.Second,
				ShardSize:      8,
				Seed:           7,
				IdleLocalAfter: time.Hour, // workers must do the work
			})
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			defer c.Close()
			base := serveCoordinator(t, c)
			for i := 0; i < 3; i++ {
				startWorker(t, base, fmt.Sprintf("w%d", i), 2)
			}
			id, err := c.Submit(tc.payload)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, err := c.Wait(ctx, id)
			if err != nil {
				t.Fatalf("cluster job failed: %v", err)
			}
			if diff := CompareResults(label, ref, got); diff != "" {
				t.Fatalf("cluster verdict diverged from single-box:\n%s", diff)
			}
			if tc.name == "toy-violated" {
				if got.Outcome != spec.Violated || got.CE == nil {
					t.Fatalf("toy job: outcome %v, CE %v; want a certified violation", got.Outcome, got.CE)
				}
			}
		})
	}
}

// A worker that dies mid-solve must lose its lease; the shard is reissued
// and the verdict is byte-identical to an uninterrupted run. The lease it
// dies with is the kind a busy worker holds — handed over on the response to
// its previous report, journaled in that report's commit — and the journal
// must prove the reissue: assign(attempt 1) → expire → assign(attempt 2) for
// the abandoned shard.
func TestLeaseExpiryReissueDeterminism(t *testing.T) {
	payload := JobPayload{Model: "bv", Prop: "BV-Just0"}
	ref, label := localReference(t, payload)
	memfs := wal.NewMemFS()
	c, err := New(Config{
		LeaseTTL:       120 * time.Millisecond,
		SweepEvery:     20 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
		ShardSize:      16,
		Seed:           11,
		MaxAttempts:    5,
		IdleLocalAfter: time.Hour,
		JournalDir:     "j",
		JournalFS:      memfs,
		JournalSync:    wal.SyncNever,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()

	id, err := c.Submit(payload)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The doomed worker: solves one shard, takes the next off its report and
	// is never heard from again — the coordinator cannot tell this from a
	// crash, a hang, or a partition, which is the point.
	first := c.claim("doomed")
	if first == nil {
		t.Fatalf("no shard claimable")
	}
	eng, plan := planFor(t, payload)
	doomed, err := c.report(&resultRequest{
		Job: first.Job, Shard: first.Shard, Hash: first.Hash, Lease: first.Lease,
		Worker: "doomed", Records: solveClaim(t, eng, plan, first), More: true,
	})
	if err != nil || doomed == nil {
		t.Fatalf("report + claim: lease %v, err %v", doomed, err)
	}
	// Wait out the lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		state := c.jobs[id].shards[doomed.Shard].state
		c.mu.Unlock()
		if state == shardPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	base := serveCoordinator(t, c)
	startWorker(t, base, "healthy", 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("cluster job failed: %v", err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("verdict after kill-mid-shard diverged:\n%s", diff)
	}
	if st, _ := c.StatusOf(id); st.Reissues < 1 {
		t.Fatalf("status reports %d reissues, want >= 1", st.Reissues)
	}

	// Journal assertion: the doomed shard's history must read
	// assign(doomed, attempt 1) → expire → assign(attempt 2).
	recs, err := ReadJournal(memfs, "j")
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	var history []string
	for _, r := range recs {
		if r.Job == id && r.Shard == doomed.Shard && (r.T == recAssign || r.T == recExpire) {
			history = append(history, fmt.Sprintf("%s:%d", r.T, r.Attempt))
		}
	}
	if len(history) < 3 || history[0] != "assign:1" || history[1] != "expire:1" || history[2] != "assign:2" {
		t.Fatalf("journal does not prove the reissue: shard %d history %v", doomed.Shard, history)
	}
}

// A coordinator killed mid-job must resume from its journal: completed
// shards stay completed (their records are re-integrated, counterexamples
// re-certified), leases are void, and finishing the job yields the
// single-box verdict.
func TestCoordinatorRestartResume(t *testing.T) {
	payload := JobPayload{Model: "bv", Prop: "BV-Just0"}
	ref, label := localReference(t, payload)
	memfs := wal.NewMemFS()
	cfg := Config{
		LeaseTTL:       200 * time.Millisecond,
		SweepEvery:     20 * time.Millisecond,
		ShardSize:      16,
		Seed:           13,
		IdleLocalAfter: time.Hour,
		JournalDir:     "j",
		JournalFS:      memfs,
		JournalSync:    wal.SyncNever,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	id, err := c1.Submit(payload)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Solve exactly two shards through the real claim/report path, then
	// "crash" (close without finishing).
	a, _, q, _ := payload.Resolve()
	eng, _ := schema.New(a, schema.Options{Mode: schema.FullEnumeration, Workers: 2})
	plan, _ := eng.PlanFull(q)
	for i := 0; i < 2; i++ {
		cr := c1.claim("prequake")
		if cr == nil {
			t.Fatalf("claim %d failed", i)
		}
		if _, err := c1.report(&resultRequest{
			Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash,
			Lease: cr.Lease, Worker: "prequake", Records: solveClaim(t, eng, plan, cr),
		}); err != nil {
			t.Fatalf("reporting shard: %v", err)
		}
	}
	// A third shard is claimed but never reported: its lease must be void
	// after the restart.
	if cr := c1.claim("prequake"); cr == nil {
		t.Fatalf("third claim failed")
	}
	c1.Close()

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopening coordinator from journal: %v", err)
	}
	defer c2.Close()
	st, ok := c2.StatusOf(id)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	if st.ShardsDone != 2 {
		t.Fatalf("resumed job has %d done shards, want 2", st.ShardsDone)
	}
	c2.mu.Lock()
	for _, s := range c2.jobs[id].shards {
		if s.state == shardLeased {
			c2.mu.Unlock()
			t.Fatalf("shard %d still leased after restart; leases must be void", s.idx)
		}
	}
	c2.mu.Unlock()

	base := serveCoordinator(t, c2)
	startWorker(t, base, "postquake", 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c2.Wait(ctx, id)
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("verdict after coordinator restart diverged:\n%s", diff)
	}
}

// The bottom of the degradation ladder: no worker ever connects, and the
// coordinator notices the silent pool and solves everything itself — same
// verdict.
func TestDegradesToLocalWithoutWorkers(t *testing.T) {
	payload := JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}
	ref, label := localReference(t, payload)
	c, err := New(Config{
		LeaseTTL:       100 * time.Millisecond,
		SweepEvery:     10 * time.Millisecond,
		ShardSize:      1,
		Seed:           17,
		IdleLocalAfter: 50 * time.Millisecond,
		LocalWorkers:   2,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	id, err := c.Submit(payload)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("degraded job failed: %v", err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("degraded-local verdict diverged:\n%s", diff)
	}
}

// Truncated prefix jobs: a Sat inside the prefix is a certified Violated
// identical to the untruncated run; a Sat-free prefix folds to the same
// Budget row (zeroed volatile fields) the structural cutoff produces.
func TestTruncatedJobs(t *testing.T) {
	// Sat at preorder index 1 < truncate: full violation survives truncation.
	vp := JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach", Truncate: 2}
	ref, label := localReference(t, JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"})
	c, err := New(Config{ShardSize: 1, Seed: 19, IdleLocalAfter: 20 * time.Millisecond, LocalWorkers: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	id, err := c.Submit(vp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("truncated job failed: %v", err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("truncated-with-Sat verdict diverged from full run:\n%s", diff)
	}

	// Sat-free prefix: bv BV-Just0 truncated to 16 of its 65 contexts must
	// report Budget with the cutoff's "limit+1" schema count.
	bp := JobPayload{Model: "bv", Prop: "BV-Just0", Truncate: 16}
	id2, err := c.Submit(bp)
	if err != nil {
		t.Fatalf("submit truncated bv: %v", err)
	}
	got2, err := c.Wait(ctx, id2)
	if err != nil {
		t.Fatalf("truncated bv job failed: %v", err)
	}
	if got2.Outcome != spec.Budget || got2.Schemas != 17 {
		t.Fatalf("truncated bv: outcome %v schemas %d, want budget-exceeded/17", got2.Outcome, got2.Schemas)
	}
}

// Submitting a payload twice lands on the same content-addressed job.
func TestSubmitIdempotent(t *testing.T) {
	c, err := New(Config{ShardSize: 8, IdleLocalAfter: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	p := JobPayload{Model: "bv", Prop: "BV-Just0"}
	id1, err := c.Submit(p)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id2, err := c.Submit(p)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("resubmission created a new job: %s vs %s", id1, id2)
	}
}

// A report under a wrong content hash must be rejected, and a duplicate
// report of a completed shard must be acknowledged without corrupting state.
func TestReportHashAndDuplicates(t *testing.T) {
	payload := JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}
	c, err := New(Config{ShardSize: 1, Seed: 23, IdleLocalAfter: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	if _, err := c.Submit(payload); err != nil {
		t.Fatalf("submit: %v", err)
	}
	cr := c.claim("w")
	if cr == nil {
		t.Fatalf("claim failed")
	}
	a, _, q, _ := payload.Resolve()
	eng, _ := schema.New(a, schema.Options{Mode: schema.FullEnumeration})
	plan, _ := eng.PlanFull(q)
	packed := solveClaim(t, eng, plan, cr)
	bad := &resultRequest{Job: cr.Job, Shard: cr.Shard, Hash: "s-bogus", Worker: "w", Records: packed}
	if _, err := c.report(bad); err == nil {
		t.Fatalf("report under a bogus content hash was accepted")
	}
	good := &resultRequest{Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash, Worker: "w", Records: packed}
	if _, err := c.report(good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	if _, err := c.report(good); err != nil {
		t.Fatalf("duplicate report not acknowledged: %v", err)
	}
	if n := obsDuplicateReport.Load(); n < 1 {
		t.Fatalf("duplicate report not counted (%d)", n)
	}
}

// A restarted worker with the same CacheDir answers reissues of shards it
// already solved from disk: the second incarnation solves nothing, and the
// verdict still byte-matches the single-box reference.
func TestWorkerCacheDirSurvivesRestart(t *testing.T) {
	payload := JobPayload{Model: "bv", Prop: "BV-Just0"}
	ref, label := localReference(t, payload)
	cacheDir := t.TempDir()
	run := func(name string) (*Worker, schema.Result) {
		c, err := New(Config{
			LeaseTTL: time.Second, ShardSize: 8, Seed: 7,
			IdleLocalAfter: time.Hour,
		})
		if err != nil {
			t.Fatalf("%s coordinator: %v", name, err)
		}
		defer c.Close()
		base := serveCoordinator(t, c)
		w := &Worker{
			Coordinator: base, ID: name, Workers: 2,
			PollInterval: 10 * time.Millisecond,
			CacheDir:     cacheDir,
			Client: &service.HTTPClient{
				MaxAttempts: 3, BaseDelay: 5 * time.Millisecond,
				MaxDelay: 20 * time.Millisecond, RetryTransport: true,
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		defer func() { cancel(); <-done }()
		id, err := c.Submit(payload)
		if err != nil {
			t.Fatalf("%s submit: %v", name, err)
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer wcancel()
		got, err := c.Wait(wctx, id)
		if err != nil {
			t.Fatalf("%s job failed: %v", name, err)
		}
		return w, got
	}

	w1, got1 := run("cold")
	if diff := CompareResults(label, ref, got1); diff != "" {
		t.Fatalf("cold verdict diverged:\n%s", diff)
	}
	if w1.ShardsSolved.Load() == 0 {
		t.Fatalf("cold worker solved nothing; the cache was never populated")
	}

	// Same payload → same content-addressed job ID, same shard boundaries
	// (ShardSize and Seed match) → same shard hashes: a fresh worker process
	// on the same CacheDir must serve every shard from disk.
	w2, got2 := run("warm")
	if diff := CompareResults(label, ref, got2); diff != "" {
		t.Fatalf("warm verdict diverged:\n%s", diff)
	}
	if n := w2.ShardsSolved.Load(); n != 0 {
		t.Fatalf("restarted worker re-solved %d shards despite a warm CacheDir", n)
	}
}

// TestSubmitBadPayloads runs the bad-request cases of the service's
// TestBadRequests against the cluster's submit endpoint and, side by side,
// the service's two: every entry point goes through the one resolver
// (service.Resolve), so each rejects with a 400 carrying the same message,
// and a rejected payload leaves no job record in the journal.
func TestSubmitBadPayloads(t *testing.T) {
	memfs := wal.NewMemFS()
	c, err := New(Config{JournalDir: "j", JournalFS: memfs, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()
	srv := service.New(service.Config{})
	svc := httptest.NewServer(srv.Handler())
	defer svc.Close()

	cases := []struct {
		name, body, want string
	}{
		{"both model and ta", `{"model":"simplified","ta":"x","prop":"Inv1_0"}`, "request sets both model and ta; pick one"},
		{"neither", `{"prop":"Inv1_0"}`, "request names no model and carries no ta"},
		{"ta without spec", `{"ta":"automaton x {}","prop":"p"}`, "a ta payload requires a spec payload with the properties to check"},
		{"unknown model", `{"model":"nope","prop":"Inv1_0"}`, `unknown model "nope"`},
		{"unknown prop", `{"model":"simplified","prop":"NoSuchProp"}`, `no property "NoSuchProp" in model simplified`},
		{"unparsable ta", `{"ta":"automaton {","spec":"p: [](locA == 0);","prop":"p"}`, "parsing ta: "},
		{"unparsable spec", fmt.Sprintf(`{"ta":%q,"spec":"bad_unreach: [](","prop":"bad_unreach"}`, toyTA), "parsing spec: "},
	}
	endpoints := []string{coord.URL + "/v1/cluster/jobs", svc.URL + "/v1/verify", svc.URL + "/v1/enqueue"}
	for _, tc := range cases {
		for _, url := range endpoints {
			resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var eb struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s %s: status %d error %q, want 400 containing %q", url, tc.name, resp.StatusCode, eb.Error, tc.want)
			}
		}
	}
	// The one check a cluster job adds: exactly one property.
	resp, err := http.Post(endpoints[0], "application/json", strings.NewReader(`{"model":"simplified"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("payload without a property: status %d, want 400", resp.StatusCode)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(memfs, "j")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("rejected payloads were journaled: %+v", recs)
	}
}
