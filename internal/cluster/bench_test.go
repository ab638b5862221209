package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/wal"
)

var benchSink int

// BenchmarkShardReport is one shard's way from solver records to the
// journal with the HTTP hop left out: pack, then report — unpack, certify,
// integrate, append the done record (and, the job being one shard, fold it
// and append jobdone) to a journal on an in-memory filesystem. bytes/shard
// is the packed size, which is also what the report carries and the worker
// caches; journal-bytes/shard the done record's frame.
func BenchmarkShardReport(b *testing.B) {
	for _, tc := range []struct {
		name string
		fx   *shardFixture
	}{
		{"naive-pruned-256", naiveShard(b)},
		{"toy-counterexample", toyShard(b)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fx := tc.fx
			cfg := Config{
				ShardSize: len(fx.ctxs), LeaseTTL: time.Hour, IdleLocalAfter: time.Hour,
				JournalDir: "j", JournalFS: wal.NewMemFS(), JournalSync: wal.SyncNever,
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { c.Close() }()
			id, err := c.Submit(fx.payload)
			if err != nil {
				b.Fatal(err)
			}
			c.mu.Lock()
			j := c.jobs[id]
			s := j.shards[0]
			frame, err := c.doneFrame(j, s, "bench", fx.packed)
			c.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4096 == 4095 {
					// Start a fresh journal now and then: the in-memory
					// filesystem keeps every byte it is given.
					b.StopTimer()
					c.Close()
					cfg.JournalFS = wal.NewMemFS()
					if c, err = New(cfg); err != nil {
						b.Fatal(err)
					}
					if _, err = c.Submit(fx.payload); err != nil {
						b.Fatal(err)
					}
					c.mu.Lock()
					j = c.jobs[id]
					s = j.shards[0]
					c.mu.Unlock()
					b.StartTimer()
				}
				packed := packRecords(fx.a, fx.recs)
				if _, err := c.report(&resultRequest{Job: id, Hash: s.hash, Worker: "bench", Records: packed}); err != nil {
					b.Fatal(err)
				}
				if !j.finished {
					b.Fatal("report did not finish the one-shard job")
				}
				// Reopen the shard so the next report is not a duplicate.
				c.mu.Lock()
				s.state, j.open, j.minSat, j.finished = shardPending, 1, math.MaxInt, false
				j.doneCh = make(chan struct{})
				c.mu.Unlock()
				benchSink += len(packed)
			}
			b.ReportMetric(float64(len(fx.packed)), "bytes/shard")
			b.ReportMetric(float64(len(frame)), "journal-bytes/shard")
		})
	}
}

// BenchmarkClaimContexts is what a claim costs in contexts: the coordinator
// front-codes one 256-context naive shard, the worker decodes it.
func BenchmarkClaimContexts(b *testing.B) {
	fx := naiveShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctxs, err := unpackContexts(packContexts(fx.ctxs), fx.guards)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(ctxs)
	}
	b.ReportMetric(float64(len(packContexts(fx.ctxs))), "bytes/shard")
}
