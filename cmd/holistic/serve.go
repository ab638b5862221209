package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/vcache"
)

// cmdServe runs the verification HTTP daemon: the batch checker behind
// POST /v1/verify, backed by the content-addressed result cache, with
// singleflight dedup, bounded admission, and a graceful SIGTERM drain that
// flushes the obs report exactly like the batch CLIs do. With -queue-dir it
// also runs the durable ingestion plane (POST /v1/enqueue): acks are
// fsync-backed, a killed daemon replays its unfinished backlog on restart,
// and poison jobs land in the dead-letter log instead of wedging consumers.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8123", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory (empty = no cache)")
	cacheEntries := fs.Int("cache-entries", 256, "in-memory LRU entries above the on-disk store")
	workers := fs.Int("j", runtime.NumCPU(), "schema-enumeration workers per engine run")
	queue := fs.Int("queue", 64, "admitted-request bound; beyond it requests shed with 429")
	maxConcurrent := fs.Int("max-concurrent", 2, "engine runs in flight; admitted requests queue on this")
	deadline := fs.Duration("deadline", 0, "per-request verification deadline (0 = none)")
	queueDir := fs.String("queue-dir", "", "durable WAL-backed job queue directory; enables POST /v1/enqueue (empty = queue off)")
	queueConsumers := fs.Int("queue-consumers", 2, "queue consumer goroutines draining the backlog")
	queueDepth := fs.Int("queue-depth", 0, "total backlog cap across tenants (0 = queue default)")
	queueTenantDepth := fs.Int("queue-tenant-depth", 0, "per-tenant backlog cap (0 = the total cap)")
	queueWeights := fs.String("queue-weights", "", "per-tenant dequeue weights, e.g. alpha=3,beta=1 (unlisted tenants weigh 1)")
	queueAttempts := fs.Int("queue-attempts", 0, "attempts before a failing job is dead-lettered (0 = queue default)")
	queueFailProp := fs.String("queue-fail-prop", "", "fault injection: queued jobs for this property fail (smoke tests drive dead-lettering with it)")
	of := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseTenantWeights(*queueWeights)
	if err != nil {
		return err
	}

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	var cache *vcache.Cache
	if *cacheDir != "" {
		cache, err = vcache.Open(vcache.Options{Dir: *cacheDir, MemEntries: *cacheEntries, Logf: logf})
		if err != nil {
			return err
		}
	}
	sink, err := of.Open("holistic serve")
	if err != nil {
		return err
	}
	defer sink.Close()

	var draining atomic.Bool
	srv := service.New(service.Config{
		Cache:              cache,
		Workers:            *workers,
		MaxQueue:           *queue,
		MaxConcurrent:      *maxConcurrent,
		RequestTimeout:     *deadline,
		Stop:               draining.Load,
		Logf:               logf,
		QueueDir:           *queueDir,
		QueueConsumers:     *queueConsumers,
		QueueMaxDepth:      *queueDepth,
		QueueTenantDepth:   *queueTenantDepth,
		QueueTenantWeights: weights,
		QueueMaxAttempts:   *queueAttempts,
		QueueFailProp:      *queueFailProp,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	hs := service.HardenServer(&http.Server{Handler: srv.Handler()})
	logf("holistic: serving on http://%s (engine %s, cache %s)",
		ln.Addr(), vcache.EngineVersion, cacheDesc(*cacheDir))

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		// Graceful drain: refuse new work (admission sees Stop), let
		// in-flight requests finish, then flush the report. A second signal
		// force-exits.
		draining.Store(true)
		logf("holistic: %v received; draining in-flight requests (signal again to force-exit)", s)
		go func() {
			<-sig
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logf("holistic: drain timed out: %v", err)
		}
	}
	// Queue close after the HTTP drain: running jobs requeue via the Stop
	// hook, outcomes are journaled and the log compacts, so the next
	// incarnation replays exactly the unfinished set.
	if err := srv.Close(); err != nil {
		logf("holistic: queue close: %v", err)
	}
	rep := srv.Report("holistic serve", *workers, false)
	if len(rep.Deterministic.Queries) == 0 {
		// A daemon that served nothing has no deterministic payload to
		// report; flushing a skeleton would fail obs validation downstream.
		logf("holistic: served no verifications; skipping report flush")
		return nil
	}
	return sink.Flush(rep)
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}

// parseTenantWeights parses the -queue-weights form "alpha=3,beta=1" into the
// fair-dequeue weight map. Empty input means every tenant weighs 1.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || strings.TrimSpace(name) == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("bad -queue-weights element %q (want tenant=positive-integer)", part)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}
