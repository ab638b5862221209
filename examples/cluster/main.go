// Fault-tolerant distributed verification: start a coordinator in-process,
// let a worker claim a shard over HTTP and crash (here: claim and never
// heartbeat, which is all a crash looks like from the coordinator's side),
// and watch the verdict come out byte-identical to a single-box run anyway.
//
// The coordinator serializes the deterministic preorder of schema contexts
// into content-addressed shards; workers claim shards under time-bounded
// leases and heartbeat while solving. A crashed worker simply stops
// heartbeating: its lease expires, the shard is reissued to a surviving
// worker, and because per-index records are process-independent facts the
// final fold cannot tell the difference. The journal records the whole
// story — this example prints the killed worker's assign → expire → assign
// history at the end.
//
// The same pieces are available from the command line:
//
//	holistic cluster -model bv -addr 127.0.0.1:9091 -journal /tmp/cluster-journal
//	holistic work -coordinator http://127.0.0.1:9091 -j 2
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	// A short lease keeps the demo quick: a real deployment uses seconds.
	memfs := wal.NewMemFS()
	coord, err := cluster.New(cluster.Config{
		LeaseTTL:       500 * time.Millisecond,
		ShardSize:      8,
		IdleLocalAfter: time.Hour, // stay distributed; don't drain locally
		JournalDir:     "journal",
		JournalFS:      memfs,
		JournalSync:    wal.SyncNever,
		Logf: func(format string, args ...any) {
			fmt.Printf("  coord: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := service.HardenServer(&http.Server{Handler: coord.Handler()})
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("coordinator on %s\n", base)

	payload := cluster.JobPayload{Model: "bv", Prop: "BV-Just0"}
	jobID, err := coord.Submit(payload)
	if err != nil {
		return err
	}
	fmt.Printf("submitted job %s (%s/%s)\n\n", jobID[:12], payload.Model, payload.Prop)

	// The doomed worker: claim a shard over the wire, then vanish without a
	// heartbeat — to the coordinator this is indistinguishable from a crash,
	// a hang, or a network partition, which is the point of leases.
	hc := &service.HTTPClient{}
	var claim cluster.ClaimResponse
	if _, err := hc.DoJSON(context.Background(), http.MethodPost, base+"/v1/cluster/claim",
		map[string]string{"worker": "doomed"}, &claim); err != nil {
		return err
	}
	fmt.Printf("worker \"doomed\" claimed shard %d under lease %s... and crashed\n\n", claim.Shard, claim.Lease[:8])

	// The survivor does the actual work, including the reissued shard.
	w2 := &cluster.Worker{Coordinator: base, ID: "survivor", Workers: 1, PollInterval: 20 * time.Millisecond}
	w2done := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { defer close(w2done); w2.Run(ctx) }()

	res, err := coord.Wait(ctx, jobID)
	if err != nil {
		return err
	}
	cancel()
	<-w2done
	fmt.Printf("\ncluster verdict: %v  (%d schemas, survivor solved %d shards)\n",
		res.Outcome, res.Schemas, w2.ShardsSolved.Load())

	// The single-box run the cluster must reproduce byte-identically.
	a, _, q, err := payload.Resolve()
	if err != nil {
		return err
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	ref, err := eng.Check(q)
	if err != nil {
		return err
	}
	if diff := cluster.CompareResults(payload.Model, ref, res); diff != "" {
		return fmt.Errorf("cluster diverged from single box: %s", diff)
	}
	fmt.Println("single-box comparison: identical verdict, schema count and solver stats")

	// The journal tells the recovery story: the doomed worker's shard shows
	// assign → expire → assign.
	recs, err := cluster.ReadJournal(memfs, "journal")
	if err != nil {
		return err
	}
	reissued := map[int]bool{}
	for _, r := range recs {
		if r.T == "expire" {
			reissued[r.Shard] = true
		}
	}
	fmt.Printf("\njournal: %d records; reissue history of the doomed worker's shards:\n", len(recs))
	for _, r := range recs {
		if (r.T == "assign" || r.T == "expire") && reissued[r.Shard] {
			fmt.Printf("  %-6s shard %d  worker=%s attempt=%d\n", r.T, r.Shard, r.Worker, r.Attempt)
		}
	}
	return nil
}
