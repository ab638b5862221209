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
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/taformat"
)

// clusterPayloads expands the cluster CLI's model/ta/spec/prop flags into one
// JobPayload per property, resolving the query list locally first so the
// submission order (and hence the printed row order) matches `holistic
// verify`.
func clusterPayloads(model, taFile, specFile, prop string, maxSchemas, truncate int) ([]cluster.JobPayload, error) {
	base := cluster.JobPayload{MaxSchemas: maxSchemas, Truncate: truncate}
	switch {
	case taFile != "":
		if specFile == "" {
			return nil, fmt.Errorf("-ta requires -spec with the properties to check")
		}
		taText, err := os.ReadFile(taFile)
		if err != nil {
			return nil, err
		}
		specText, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		base.TA, base.Spec = string(taText), string(specText)
	default:
		base.Model = model
	}
	names, err := clusterQueryNames(&base)
	if err != nil {
		return nil, err
	}
	var payloads []cluster.JobPayload
	for _, name := range names {
		if prop != "" && name != prop {
			continue
		}
		p := base
		p.Prop = name
		payloads = append(payloads, p)
	}
	if len(payloads) == 0 {
		return nil, fmt.Errorf("no property %q in the selected model", prop)
	}
	return payloads, nil
}

// clusterQueryNames lists the property names a payload's model/spec defines.
func clusterQueryNames(base *cluster.JobPayload) ([]string, error) {
	if base.Model != "" {
		_, queries, err := service.BuiltinModel(base.Model)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(queries))
		for i := range queries {
			names[i] = queries[i].Name
		}
		return names, nil
	}
	// Inline ta/spec: compile once locally to list the properties — the same
	// parse the coordinator and every worker will repeat from the payload.
	a, err := taformat.Parse(base.TA)
	if err != nil {
		return nil, err
	}
	pf, err := ltl.ParseFile(base.Spec)
	if err != nil {
		return nil, err
	}
	queries, err := ltl.CompileFile(pf, a)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(queries))
	for i := range queries {
		names[i] = queries[i].Name
	}
	return names, nil
}

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
	model := fs.String("model", "bv", "model: bv, naive, simplified, strb or bosco")
	taFile := fs.String("ta", "", "load the automaton from a .ta file instead of a bundled model")
	specFile := fs.String("spec", "", "property file to check (required with -ta)")
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
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	payloads, err := clusterPayloads(*model, *taFile, *specFile, *prop, *maxSchemas, *truncate)
	if err != nil {
		return err
	}
	sink, err := of.open("holistic cluster")
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

	ids := make([]string, len(payloads))
	for i := range payloads {
		id, err := coord.Submit(payloads[i])
		if err != nil {
			return err
		}
		ids[i] = id
	}

	ctx, cancel := stopContext(stop)
	defer cancel()
	modelName := *model
	obsRep := &obs.Report{Tool: "holistic cluster"}
	for i, id := range ids {
		res, err := coord.Wait(ctx, id)
		if err != nil {
			if stop() {
				return fmt.Errorf("cluster interrupted; completed verdicts were reported")
			}
			return err
		}
		if *taFile != "" && i == 0 {
			if st, ok := coord.StatusOf(id); ok {
				modelName = st.Model
			}
		}
		addResultMetrics(obsRep, modelName, res)
		fmt.Printf("%-16s %-16s %8d schemas  avg len %6.1f  %v\n",
			res.Query, res.Outcome, res.Schemas, res.AvgLen, res.Elapsed.Round(time.Millisecond))
		if *stats {
			if st, ok := coord.StatusOf(id); ok {
				fmt.Printf("    cluster: %d shards (%d done, %d cancelled), %d reissues\n",
					st.ShardsTotal, st.ShardsDone, st.ShardsCancelled, st.Reissues)
			}
		}
		if res.CE != nil {
			fmt.Println(res.CE.Format())
		}
	}
	finalizeReport(obsRep, *local, stop())
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
