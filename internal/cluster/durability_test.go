package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// planFor resolves a payload the way a worker does.
func planFor(t testing.TB, p JobPayload) (*schema.Engine, *schema.FullPlan) {
	t.Helper()
	a, _, q, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.PlanFull(q)
	if err != nil {
		t.Fatal(err)
	}
	return eng, plan
}

// Acknowledged means durable, under the default fsync discipline and on the
// path the benchmark runs: a coordinator journaling with SyncEachAppend over
// the storage fault injector loses its unsynced pages after every
// acknowledged claim and every acknowledged report-and-claim, is reopened
// from what survived, and must still hold every acknowledged done shard
// (none is solved twice) and every acknowledged attempt count. Each
// journaling request costs exactly one fsync, however many records it
// appends.
func TestAcknowledgedIsDurable(t *testing.T) {
	payload := JobPayload{Model: "bv", Prop: "BV-Just0"}
	ref, label := localReference(t, payload)
	eng, plan := planFor(t, payload)
	fs := faults.NewStorageFS("j", 1, nil)
	cfg := Config{
		LeaseTTL:       time.Hour, // nothing expires: every record below is one this test caused
		ShardSize:      8,
		Seed:           29,
		IdleLocalAfter: time.Hour,
		JournalDir:     "j",
		JournalFS:      fs,
		JournalSync:    wal.SyncEachAppend,
	}
	fsyncs := obs.Default.Counter("wal", "fsyncs")
	oneFsync := func(what string, request func()) {
		t.Helper()
		before := fsyncs.Load()
		request()
		if got := fsyncs.Load() - before; got != 1 {
			t.Fatalf("%s cost %d fsyncs, want exactly 1", what, got)
		}
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close() }()
	var id string
	oneFsync("submit", func() {
		if id, err = c.Submit(payload); err != nil {
			t.Fatal(err)
		}
	})

	done := map[int]bool{}    // shards whose report was acknowledged
	attempts := map[int]int{} // shard → last acknowledged attempt
	solved := map[int]int{}   // shard → times solved
	// crash drops every unsynced page, reopens the journal and checks that
	// everything acknowledged so far is still there.
	crash := func(after string) {
		t.Helper()
		fs.Crash()
		c.Close()
		if c, err = New(cfg); err != nil {
			t.Fatalf("reopening after %s: %v", after, err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		j, ok := c.jobs[id]
		if !ok {
			t.Fatalf("after %s: the acknowledged job is gone", after)
		}
		for idx := range done {
			if j.shards[idx].state != shardDone {
				t.Fatalf("after %s: acknowledged done shard %d is in state %d", after, idx, j.shards[idx].state)
			}
		}
		for idx, n := range attempts {
			if j.shards[idx].attempt != n {
				t.Fatalf("after %s: shard %d attempt %d, acknowledged %d", after, idx, j.shards[idx].attempt, n)
			}
		}
	}

	var cr *ClaimResponse
	oneFsync("claim", func() { cr = c.claim("w") })
	if cr == nil {
		t.Fatal("nothing claimable")
	}
	attempts[cr.Shard] = cr.Attempt
	crash("the first claim")
	for cr != nil {
		// The restart voided the lease; the report is accepted by content hash.
		packed := solveClaim(t, eng, plan, cr)
		solved[cr.Shard]++
		var next *ClaimResponse
		oneFsync(fmt.Sprintf("report of shard %d + claim", cr.Shard), func() {
			next, err = c.report(&resultRequest{
				Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash, Lease: cr.Lease,
				Worker: "w", Records: packed, More: true,
			})
		})
		if err != nil {
			t.Fatalf("report of shard %d: %v", cr.Shard, err)
		}
		done[cr.Shard] = true
		if next != nil {
			attempts[next.Shard] = next.Attempt
		}
		crash(fmt.Sprintf("the report of shard %d", cr.Shard))
		cr = next
	}

	got, finished, err := c.Result(id)
	if err != nil || !finished {
		t.Fatalf("job after the last crash: finished=%v err=%v", finished, err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("verdict replayed from the journal diverged:\n%s", diff)
	}
	st, _ := c.StatusOf(id)
	if len(done) != st.ShardsTotal {
		t.Fatalf("%d of %d shards reported", len(done), st.ShardsTotal)
	}
	for idx, n := range solved {
		if n != 1 {
			t.Errorf("shard %d solved %d times", idx, n)
		}
	}
}

// A journal that stops taking appends is visible: every refused append and
// failed sync counts in cluster/journal_errors, and the coordinator still
// finishes the job in memory.
func TestJournalErrorsCounted(t *testing.T) {
	payload := JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}
	ref, label := localReference(t, payload)
	eng, plan := planFor(t, payload)
	// The machine's disk dies at the journal's second append (the first
	// assign); the log refuses everything after it.
	fs := faults.NewStorageFS("j", 1, []faults.StorageFault{{Append: 2, Kind: faults.StoreKill}})
	c, err := New(Config{
		ShardSize: 1, Seed: 31, IdleLocalAfter: time.Hour,
		JournalDir: "j", JournalFS: fs, JournalSync: wal.SyncEachAppend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(payload)
	if err != nil {
		t.Fatal(err)
	}
	before := obsJournalErrors.Load()
	for cr := c.claim("w"); cr != nil; {
		if cr, err = c.report(&resultRequest{
			Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash,
			Worker: "w", Records: solveClaim(t, eng, plan, cr), More: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// assign, done, assign, done, jobdone: five refused appends.
	if got := obsJournalErrors.Load() - before; got != 5 {
		t.Errorf("cluster/journal_errors grew by %d, want 5", got)
	}
	got, finished, err := c.Result(id)
	if err != nil || !finished {
		t.Fatalf("job with a dead journal: finished=%v err=%v", finished, err)
	}
	if diff := CompareResults(label, ref, got); diff != "" {
		t.Fatalf("verdict with a dead journal diverged:\n%s", diff)
	}
}

// Every handler caps its request body, and a report whose done record the
// journal could not hold is refused whole — 413, not integrated, not
// journaled — instead of living on in memory only.
func TestOversizeRequestsRefused(t *testing.T) {
	memfs := wal.NewMemFS()
	c, err := New(Config{
		ShardSize: 1, Seed: 37, IdleLocalAfter: time.Hour,
		JournalDir: "j", JournalFS: memfs, JournalSync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	big := append(append([]byte(`{"worker":"`), bytes.Repeat([]byte("w"), maxBody)...), `"}`...)
	for _, path := range []string{"jobs", "claim", "heartbeat", "result"} {
		resp, err := http.Post(srv.URL+"/v1/cluster/"+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(big), resp.StatusCode)
		}
	}

	cr := c.claim("w")
	if cr == nil {
		t.Fatal("nothing claimable")
	}
	// 13 MiB of records is 17 MiB of base64: more than one journal record holds.
	huge := &resultRequest{
		Job: cr.Job, Shard: cr.Shard, Hash: cr.Hash, Worker: "w",
		Records: make([]byte, 13<<20), More: true,
	}
	next, err := c.report(huge)
	if !errors.Is(err, errRecordTooLarge) || next != nil {
		t.Fatalf("unjournalable report: next=%v err=%v, want errRecordTooLarge and no lease", next, err)
	}
	c.mu.Lock()
	state := c.jobs[id].shards[cr.Shard].state
	c.mu.Unlock()
	if state != shardLeased {
		t.Errorf("refused report moved the shard to state %d", state)
	}
	recs, err := ReadJournal(memfs, "j")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.T == recDone {
			t.Errorf("refused report was journaled: %+v", r)
		}
	}
}

// A worker whose Stop trips once it has a shard to report sends that report
// without asking for more: it leaves with no lease in its name, so nothing
// waits out a TTL for a worker that said goodbye.
func TestGracefulStopStrandsNoLease(t *testing.T) {
	c, err := New(Config{LeaseTTL: time.Hour, ShardSize: 8, Seed: 41, IdleLocalAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := serveCoordinator(t, c)
	id, err := c.Submit(JobPayload{Model: "bv", Prop: "BV-Just0"})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: base, ID: "leaver", Workers: 1, PollInterval: 10 * time.Millisecond}
	// ShardsSolved ticks after a solve and before its report: Stop is false
	// throughout the second solve and true when its report is built.
	w.Stop = func() bool { return w.ShardsSolved.Load() >= 2 }
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st, _ := c.StatusOf(id)
	if st.ShardsDone != 2 {
		t.Errorf("%d shards done, want the 2 the worker solved", st.ShardsDone)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leases != 0 {
		t.Errorf("%d leases outlive the worker", c.leases)
	}
	for _, s := range c.jobs[id].shards {
		if s.state == shardLeased {
			t.Errorf("shard %d is still leased to %s", s.idx, s.worker)
		}
	}
	if c.leasesViaReport != 1 {
		t.Errorf("%d leases rode on a report, want 1 (the first report's; the second asked for none)", c.leasesViaReport)
	}
}
