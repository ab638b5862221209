package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
)

// stopContext cancels the returned context as soon as the cooperative stop
// flag trips (the CLI's signal handler owns the flag).
func stopContext(stop func() bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for !stop() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
		cancel()
	}()
	return ctx, cancel
}

// cmdCluster runs the fault-tolerant coordination plane in-process: it
// serves the cluster API for `holistic work` daemons, submits one job per
// property, and prints verify-style rows as verdicts land. With no workers
// attached it still finishes — the degradation ladder drains every shard
// locally — and with -journal a killed coordinator resumes on restart.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	model := fs.String("model", "bv", modelHelp())
	taFile := fs.String("ta", "", "load the automaton from a .ta file instead of a bundled model")
	specFile := fs.String("spec", "", "property file to check (required with -ta; with -model it replaces the bundled properties)")
	prop := fs.String("prop", "", "check only this property (default: all)")
	addr := fs.String("addr", "127.0.0.1:9091", "coordination API listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	journalDir := fs.String("journal", "", "WAL-journal directory; a restarted coordinator resumes from it")
	shardSize := fs.Int("shard", 64, "contexts per shard")
	lease := fs.Duration("lease", 3*time.Second, "shard lease TTL (heartbeats extend it; silence reissues the shard)")
	maxAttempts := fs.Int("max-attempts", 5, "remote issues per shard before it is only solved locally")
	maxSchemas := fs.Int("max-schemas", 0, "schema enumeration budget (0 = the paper's 100k cutoff)")
	truncate := fs.Int("truncate", 0, "solve only the first N preorder schemas (a Sat still refutes; a clean prefix reports budget-exceeded)")
	idleLocal := fs.Duration("idle-local", 0, "worker-pool silence before the coordinator drains shards itself (0 = 2x lease)")
	local := fs.Int("local", runtime.NumCPU(), "solver threads for locally drained shards")
	stats := fs.Bool("stats", false, "print shard/reissue statistics per property")
	of := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := verifyRequest(*model, *taFile, *specFile, *prop, schema.FullEnumeration.String(), 0)
	if err != nil {
		return err
	}
	r, err := service.Resolve(req)
	if err != nil {
		return err
	}
	sink, err := of.Open("holistic cluster")
	if err != nil {
		return err
	}
	defer sink.Close()
	stop := watchInterrupt()

	coord, err := cluster.New(cluster.Config{
		LeaseTTL:       *lease,
		MaxAttempts:    *maxAttempts,
		ShardSize:      *shardSize,
		JournalDir:     *journalDir,
		LocalWorkers:   *local,
		IdleLocalAfter: *idleLocal,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "holistic: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := service.HardenServer(&http.Server{Handler: coord.Handler()})
	go hs.Serve(ln)
	defer hs.Close()
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "holistic: cluster coordinator listening on http://%s\n", bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}

	// One job per resolved property, submitted in resolution order so the
	// rows print in `holistic verify` order.
	ids := make([]string, len(r.Queries))
	for i := range r.Queries {
		id, err := coord.Submit(cluster.JobPayload{
			Model: req.Model, TA: req.TA, Spec: req.Spec, Prop: r.Queries[i].Name,
			MaxSchemas: *maxSchemas, Truncate: *truncate,
		})
		if err != nil {
			return err
		}
		ids[i] = id
	}

	ctx, cancel := stopContext(stop)
	defer cancel()
	obsRep := &obs.Report{Tool: "holistic cluster"}
	for _, id := range ids {
		res, err := coord.Wait(ctx, id)
		if err != nil {
			if stop() {
				return fmt.Errorf("cluster interrupted; completed verdicts were reported")
			}
			return err
		}
		addResultMetrics(obsRep, r.Label, res)
		row := resultRow(res, false, false)
		if *stats {
			if st, ok := coord.StatusOf(id); ok {
				row.stats = fmt.Sprintf("    cluster: %d shards (%d done, %d cancelled), %d reissues",
					st.ShardsTotal, st.ShardsDone, st.ShardsCancelled, st.Reissues)
			}
		}
		row.print()
	}
	obsRep.Stamp(*local, stop())
	if err := sink.Flush(obsRep); err != nil {
		return err
	}
	return nil
}

// cmdWork runs one shard-solving worker daemon against a coordinator started
// with `holistic cluster`. Workers are stateless: kill -9 one mid-shard and
// the lease expires, the shard reissues, and the surviving pool (or the
// coordinator itself) finishes with a byte-identical verdict.
func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:9091", "coordinator base URL")
	workers := fs.Int("j", runtime.NumCPU(), "solver threads per shard")
	id := fs.String("id", "", "worker ID in leases and journal records (default: derived from the PID)")
	poll := fs.Duration("poll", 200*time.Millisecond, "claim-poll interval when no work is available")
	quiet := fs.Bool("quiet", false, "suppress per-shard progress lines")
	cacheDir := fs.String("cache", "", "persist solved shards here by content hash; a restarted worker answers reissues from disk")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	stop := watchInterrupt()
	ctx, cancel := stopContext(stop)
	defer cancel()
	w := &cluster.Worker{
		Coordinator:  strings.TrimRight(*coordinator, "/"),
		ID:           *id,
		Workers:      *workers,
		PollInterval: *poll,
		Stop:         stop,
		CacheDir:     *cacheDir,
	}
	if !*quiet {
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "holistic: "+format+"\n", a...)
		}
	}
	fmt.Fprintf(os.Stderr, "holistic: worker %s solving for %s (j=%d)\n", *id, w.Coordinator, *workers)
	if err := w.Run(ctx); err != nil && !stop() {
		return err
	}
	fmt.Fprintf(os.Stderr, "holistic: worker %s stopped (%d shards solved)\n", *id, w.ShardsSolved.Load())
	return nil
}
