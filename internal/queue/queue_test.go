package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// testConfig returns a fast-retry config on the given MemFS with a handler
// that records every run.
type runLog struct {
	mu   sync.Mutex
	runs map[string]int
	term map[string][]State
}

func newRunLog() *runLog {
	return &runLog{runs: map[string]int{}, term: map[string][]State{}}
}

func (rl *runLog) ran(id string) {
	rl.mu.Lock()
	rl.runs[id]++
	rl.mu.Unlock()
}

func (rl *runLog) count(id string) int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.runs[id]
}

func (rl *runLog) terminal(j Job, st State) {
	rl.mu.Lock()
	rl.term[j.ID] = append(rl.term[j.ID], st)
	rl.mu.Unlock()
}

func baseConfig(fs *wal.MemFS) Config {
	return Config{
		Dir:          "q",
		FS:           fs,
		RetryBase:    time.Millisecond,
		RetryMax:     4 * time.Millisecond,
		SyncInterval: -1,
		Seed:         7,
	}
}

func waitIdleT(t *testing.T, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

func TestQueueDrainAndCleanRestart(t *testing.T) {
	fs := wal.NewMemFS()
	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.Handler = func(_ context.Context, j Job) error { rl.ran(j.ID); return nil }
	cfg.OnTerminal = rl.terminal
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id, st, dup, err := q.Enqueue("t1", []byte(fmt.Sprintf("job-%d", i)))
		if err != nil || dup || st != StatePending {
			t.Fatalf("Enqueue %d: id=%s st=%v dup=%v err=%v", i, id, st, dup, err)
		}
		ids = append(ids, id)
	}
	waitIdleT(t, q)
	for _, id := range ids {
		if n := rl.count(id); n != 1 {
			t.Errorf("job %s ran %d times, want 1", id, n)
		}
		if st, ok := q.JobState(id); !ok || st != StateDone {
			t.Errorf("job %s state %v ok=%v, want done", id, st, ok)
		}
	}
	st := q.Status()
	if st.Depth != 0 || st.Inflight != 0 || st.Done != 10 || st.Enqueued != 10 {
		t.Errorf("status %+v", st)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A graceful close compacts: the restart replays terminal states without
	// re-running anything.
	q2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	waitIdleT(t, q2)
	for _, id := range ids {
		if n := rl.count(id); n != 1 {
			t.Errorf("after restart job %s ran %d times, want 1", id, n)
		}
		if st, ok := q2.JobState(id); !ok || st != StateDone {
			t.Errorf("after restart job %s state %v ok=%v", id, st, ok)
		}
	}
}

// TestQueueReplayWriteBehindLoss hand-crafts the exact crash the write-behind
// completion discipline allows: enq records durable, one done record synced,
// a second done record torn off with the unsynced tail. Recovery must re-run
// everything except the durably-done job — and nothing twice.
func TestQueueReplayWriteBehindLoss(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _, err := wal.Open(wal.Options{FS: fs, Dir: "q/journal", Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("craft journal: %v", err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("job-%d", i))
		id := JobID("t1", payload)
		ids = append(ids, id)
		data, _ := encodeRec(rec{T: recEnq, ID: id, Tenant: "t1", P: payload})
		if err := jl.Append(data); err != nil {
			t.Fatalf("append enq: %v", err)
		}
	}
	if err := jl.Sync(); err != nil {
		t.Fatalf("sync enq: %v", err)
	}
	done0, _ := encodeRec(rec{T: recDone, ID: ids[0]})
	if err := jl.Append(done0); err != nil {
		t.Fatalf("append done0: %v", err)
	}
	if err := jl.Sync(); err != nil {
		t.Fatalf("sync done0: %v", err)
	}
	done1, _ := encodeRec(rec{T: recDone, ID: ids[1]})
	if err := jl.Append(done1); err != nil {
		t.Fatalf("append done1: %v", err)
	}
	fs.Crash(nil) // done1 was never synced: gone

	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.Handler = func(_ context.Context, j Job) error { rl.ran(j.ID); return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer q.Close()
	waitIdleT(t, q)
	if n := rl.count(ids[0]); n != 0 {
		t.Errorf("durably-done job re-ran %d times", n)
	}
	for _, id := range ids[1:] {
		if n := rl.count(id); n != 1 {
			t.Errorf("job %s ran %d times, want 1", id, n)
		}
	}
	for _, id := range ids {
		if st, ok := q.JobState(id); !ok || st != StateDone {
			t.Errorf("job %s final state %v ok=%v", id, st, ok)
		}
	}
}

func TestQueuePoisonDeadLetters(t *testing.T) {
	fs := wal.NewMemFS()
	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.MaxAttempts = 3
	cfg.Handler = func(_ context.Context, j Job) error {
		rl.ran(j.ID)
		if string(j.Payload) == "poison" {
			return Permanent(errors.New("malformed spec"))
		}
		return errors.New("transient wobble")
	}
	cfg.OnTerminal = rl.terminal
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pid, _, _, err := q.Enqueue("t1", []byte("poison"))
	if err != nil {
		t.Fatalf("enqueue poison: %v", err)
	}
	fid, _, _, err := q.Enqueue("t1", []byte("flaky-forever"))
	if err != nil {
		t.Fatalf("enqueue flaky: %v", err)
	}
	waitIdleT(t, q)
	if n := rl.count(pid); n != 1 {
		t.Errorf("poison ran %d times, want 1 (Permanent must skip retries)", n)
	}
	if n := rl.count(fid); n != 3 {
		t.Errorf("transient job ran %d times, want MaxAttempts=3", n)
	}
	for _, id := range []string{pid, fid} {
		if st, ok := q.JobState(id); !ok || st != StateDead {
			t.Errorf("job %s state %v ok=%v, want dead", id, st, ok)
		}
	}
	dls := q.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("got %d dead letters, want 2", len(dls))
	}
	for _, dl := range dls {
		if dl.Reason == "" {
			t.Errorf("dead letter %s has empty reason", dl.ID)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Quarantine survives restart: both the terminal state and the forensic
	// record come back, and a duplicate enqueue reports dead instead of
	// re-running the poison.
	q2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	if st, ok := q2.JobState(pid); !ok || st != StateDead {
		t.Errorf("restart lost dead state: %v ok=%v", st, ok)
	}
	if got := len(q2.DeadLetters()); got != 2 {
		t.Errorf("restart lost dead letters: got %d", got)
	}
	id, st, dup, err := q2.Enqueue("t1", []byte("poison"))
	if err != nil || !dup || st != StateDead || id != pid {
		t.Errorf("re-enqueue of dead job: id=%s st=%v dup=%v err=%v", id, st, dup, err)
	}
}

func TestQueueTransientRetrySucceeds(t *testing.T) {
	fs := wal.NewMemFS()
	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.MaxAttempts = 4
	cfg.Handler = func(_ context.Context, j Job) error {
		rl.ran(j.ID)
		// Fails on attempts 0 and 1, succeeds on the third run. Keyed off
		// j.Attempts (journaled) rather than the local count so the logic
		// would hold across restarts too.
		if j.Attempts < 2 {
			return errors.New("transient")
		}
		return nil
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	id, _, _, err := q.Enqueue("t1", []byte("flaky"))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitIdleT(t, q)
	if n := rl.count(id); n != 3 {
		t.Errorf("ran %d times, want 3", n)
	}
	if st, _ := q.JobState(id); st != StateDone {
		t.Errorf("state %v, want done", st)
	}
	if got := q.Status().Retries; got != 2 {
		t.Errorf("retries %d, want 2", got)
	}
}

func TestQueueRequeueDoesNotBurnAttempts(t *testing.T) {
	fs := wal.NewMemFS()
	var mu sync.Mutex
	requeues := 0
	cfg := baseConfig(fs)
	cfg.MaxAttempts = 2
	cfg.Handler = func(_ context.Context, j Job) error {
		mu.Lock()
		defer mu.Unlock()
		if requeues < 5 {
			requeues++
			return ErrRequeue
		}
		if j.Attempts != 0 {
			return Permanent(fmt.Errorf("requeue burned %d attempts", j.Attempts))
		}
		return nil
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	id, _, _, err := q.Enqueue("t1", []byte("shutdown-victim"))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitIdleT(t, q)
	if st, _ := q.JobState(id); st != StateDone {
		t.Errorf("state %v, want done (5 requeues must not exhaust MaxAttempts=2)", st)
	}
}

func TestQueueFairnessSmoothWRR(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := baseConfig(fs)
	cfg.Consumers = -1 // drive pickLocked by hand
	cfg.TenantWeights = map[string]int{"alpha": 3, "beta": 1}
	cfg.Handler = func(context.Context, Job) error { return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	for i := 0; i < 8; i++ {
		if _, _, _, err := q.Enqueue("alpha", []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatalf("enqueue alpha: %v", err)
		}
		if _, _, _, err := q.Enqueue("beta", []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatalf("enqueue beta: %v", err)
		}
	}
	var got []string
	q.mu.Lock()
	for i := 0; i < 8; i++ {
		j := q.pickLocked()
		if j == nil {
			q.mu.Unlock()
			t.Fatalf("pick %d returned nil", i)
		}
		got = append(got, j.Tenant)
	}
	q.mu.Unlock()
	// Smooth WRR at 3:1 interleaves rather than bursting: beta appears once
	// in every window of 4, never back to back with itself.
	want := []string{"alpha", "alpha", "beta", "alpha", "alpha", "alpha", "beta", "alpha"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick order %v, want %v", got, want)
		}
	}
}

func TestQueueDepthCaps(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := baseConfig(fs)
	cfg.Consumers = -1 // nothing drains, so depth only grows
	cfg.MaxDepth = 4
	cfg.TenantDepth = 2
	cfg.Handler = func(context.Context, Job) error { return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	for i := 0; i < 2; i++ {
		if _, _, _, err := q.Enqueue("greedy", []byte(fmt.Sprintf("g%d", i))); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, _, _, err := q.Enqueue("greedy", []byte("g2")); !errors.Is(err, ErrTenantFull) {
		t.Errorf("tenant over cap: err=%v, want ErrTenantFull", err)
	}
	// Another tenant still gets in: the cap is per tenant, not global.
	for i := 0; i < 2; i++ {
		if _, _, _, err := q.Enqueue("modest", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("enqueue modest %d: %v", i, err)
		}
	}
	if _, _, _, err := q.Enqueue("third", []byte("t0")); !errors.Is(err, ErrQueueFull) {
		t.Errorf("global over cap: err=%v, want ErrQueueFull", err)
	}
	if got := q.Status().Rejected; got != 2 {
		t.Errorf("rejected %d, want 2", got)
	}
}

func TestQueueDedupCollapsesResubmits(t *testing.T) {
	fs := wal.NewMemFS()
	block := make(chan struct{})
	cfg := baseConfig(fs)
	cfg.Handler = func(_ context.Context, j Job) error { <-block; return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	id1, _, dup1, err := q.Enqueue("t1", []byte("same"))
	if err != nil || dup1 {
		t.Fatalf("first enqueue: dup=%v err=%v", dup1, err)
	}
	id2, _, dup2, err := q.Enqueue("t1", []byte("same"))
	if err != nil || !dup2 || id2 != id1 {
		t.Fatalf("second enqueue: id=%s dup=%v err=%v", id2, dup2, err)
	}
	// Same payload under another tenant is a different job: tenants must not
	// be able to poison or observe each other's entries.
	id3, _, dup3, err := q.Enqueue("t2", []byte("same"))
	if err != nil || dup3 || id3 == id1 {
		t.Fatalf("cross-tenant enqueue: id=%s dup=%v err=%v", id3, dup3, err)
	}
	close(block)
	waitIdleT(t, q)
	if got := q.Status().Deduped; got != 1 {
		t.Errorf("deduped %d, want 1", got)
	}
}

func TestQueueTornTailOnEnqueueAck(t *testing.T) {
	// A crash can tear the journal mid-frame; recovery must truncate the
	// torn tail and keep every record before it.
	fs := wal.NewMemFS()
	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.Consumers = -1 // keep jobs queued so the journal holds only enq records
	cfg.Handler = func(_ context.Context, j Job) error { rl.ran(j.ID); return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, _, _, err := q.Enqueue("t1", []byte(fmt.Sprintf("job-%d", i)))
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		ids = append(ids, id)
	}
	q.Kill()
	// Append a record that never gets synced, then tear half of it off.
	data, _ := encodeRec(rec{T: recEnq, ID: "unacked", Tenant: "t1", P: []byte("unacked")})
	q.journal.Append(data)
	fs.Crash(func(name string, unsynced int) int { return unsynced / 2 })

	cfg.Consumers = 0 // default pool this time: drain everything
	q2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer q2.Close()
	waitIdleT(t, q2)
	for _, id := range ids {
		if n := rl.count(id); n != 1 {
			t.Errorf("acked job %s ran %d times, want 1", id, n)
		}
	}
	if n := rl.count("unacked"); n != 0 {
		t.Errorf("torn unacked record ran %d times", n)
	}
}

func TestQueueWaitIdleHonorsContext(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := baseConfig(fs)
	cfg.Consumers = -1 // job can never finish
	cfg.Handler = func(context.Context, Job) error { return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	if _, _, _, err := q.Enqueue("t1", []byte("stuck")); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.WaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitIdle err=%v, want DeadlineExceeded", err)
	}
}

func TestQueueClosedAndKilledRefuse(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := baseConfig(fs)
	cfg.Handler = func(context.Context, Job) error { return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, _, err := q.Enqueue("t1", []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("enqueue after close: %v, want ErrClosed", err)
	}
	if err := q.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}

	fs2 := wal.NewMemFS()
	cfg2 := baseConfig(fs2)
	cfg2.Handler = func(context.Context, Job) error { return nil }
	q2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	q2.Kill()
	if _, _, _, err := q2.Enqueue("t1", []byte("late")); !errors.Is(err, ErrKilled) {
		t.Errorf("enqueue after kill: %v, want ErrKilled", err)
	}
	if err := q2.Close(); !errors.Is(err, ErrKilled) {
		t.Errorf("close after kill: %v, want ErrKilled", err)
	}
}

func TestQueuePanicIsAFailureNotACrash(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := baseConfig(fs)
	cfg.MaxAttempts = 2
	cfg.Handler = func(_ context.Context, j Job) error {
		panic("handler exploded")
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	id, _, _, err := q.Enqueue("t1", []byte("bomb"))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitIdleT(t, q)
	if st, _ := q.JobState(id); st != StateDead {
		t.Errorf("state %v, want dead", st)
	}
	dls := q.DeadLetters()
	if len(dls) != 1 || dls[0].Reason == "" {
		t.Fatalf("dead letters %+v", dls)
	}
}

func TestQueuePausedBacklogThenResume(t *testing.T) {
	fs := wal.NewMemFS()
	rl := newRunLog()
	cfg := baseConfig(fs)
	cfg.Consumers = -1 // held: the backlog builds before anything drains
	cfg.Handler = func(_ context.Context, j Job) error { rl.ran(j.ID); return nil }
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer q.Close()
	for i := 0; i < 20; i++ {
		if _, _, _, err := q.Enqueue("t1", []byte(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if st := q.Status(); st.Depth != 20 || st.Inflight != 0 {
		t.Fatalf("paused queue drained: %+v", st)
	}
	q.resume(2)
	waitIdleT(t, q)
	if st := q.Status(); st.Done != 20 {
		t.Errorf("done %d, want 20", st.Done)
	}
}

// TestQueueCompactionCoversLiveJobs forces a compaction while jobs are still
// queued, kills the queue before anything else is written, and replays: the
// snapshot must carry the live set or compaction would be a data-loss event.
func TestQueueCompactionCoversLiveJobs(t *testing.T) {
	fs := wal.NewMemFS()
	rl := newRunLog()
	gate := make(chan struct{})
	cfg := baseConfig(fs)
	cfg.CompactEvery = 1 // every terminal transition compacts
	cfg.Consumers = 1
	cfg.Handler = func(_ context.Context, j Job) error {
		rl.ran(j.ID)
		<-gate
		return nil
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, _, _, err := q.Enqueue("t1", []byte(fmt.Sprintf("job-%d", i)))
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		ids = append(ids, id)
	}
	gate <- struct{}{} // let exactly one job finish (and compact)
	for {
		if q.Status().Done == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	q.Kill()
	fs.Crash(nil)

	cfg2 := baseConfig(fs)
	cfg2.Handler = func(_ context.Context, j Job) error { rl.ran(j.ID); return nil }
	q2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen after compaction crash: %v", err)
	}
	defer q2.Close()
	waitIdleT(t, q2)
	total := 0
	for _, id := range ids {
		if st, ok := q2.JobState(id); !ok || st != StateDone {
			t.Errorf("job %s state %v ok=%v", id, st, ok)
		}
		total += rl.count(id)
	}
	// One job ran before the kill; its done record hit the post-compaction
	// journal. Depending on sync timing it may re-run once after replay, but
	// no job may be lost and no schedule may run 6 jobs more than 7 times.
	if total < 6 || total > 7 {
		t.Errorf("total runs %d, want 6..7", total)
	}
}

// TestBackoff pins the shared retry-delay formula on its own: the capped
// exponential part is exact, and the jitter drawn on top stays within half
// of it at every draw.
func TestBackoff(t *testing.T) {
	const base, max = 10 * time.Millisecond, 75 * time.Millisecond
	cases := []struct {
		name    string
		attempt int
		want    time.Duration // the un-jittered delay
	}{
		{"first attempt is the base", 1, base},
		{"doubles per attempt", 3, 4 * base},
		{"cap reached", 4, max},
		{"shift overflow clamps to max", 63, max},
		{"shift count past the word clamps to max", 70, max},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		var most time.Duration
		for i := 0; i < 200; i++ {
			d := Backoff(base, max, tc.attempt, rng)
			if d < tc.want || d > tc.want+tc.want/2 {
				t.Fatalf("%s: Backoff = %v, want within [%v, %v]", tc.name, d, tc.want, tc.want+tc.want/2)
			}
			if d > most {
				most = d
			}
		}
		if most == tc.want {
			t.Errorf("%s: 200 draws all returned %v; jitter is not being applied", tc.name, most)
		}
	}
}
