package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/queue"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/vcache"
	"repro/internal/wal"
)

// clients is the most load-generating goroutines (and connections) the
// benchmark ever runs at once: all load comes from this process, and a
// generator wider than the machine would measure its own queueing.
func clients() int { return max(1, min(2, runtime.NumCPU())) }

// listenAndServe serves h on an ephemeral loopback port behind
// service.HardenServer and returns the base URL and a stop function that
// returns once the server goroutine has exited.
func listenAndServe(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := service.HardenServer(&http.Server{Handler: h})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// postJSON sends one request and reads the whole reply, so the connection
// goes back to the pool.
func postJSON(hc *http.Client, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// ---- cluster_prune ----

type clusterPrune struct {
	e        *env
	payload  cluster.JobPayload
	ref      schema.Result
	refWallS float64
	units    int
}

func setupClusterPrune(e *env) (instance, error) {
	c := &clusterPrune{e: e}
	// The seed nudges the prefix length, which also gives every seed its own
	// content-addressed job.
	n := e.div(10000, 600) + int(e.seed%64)
	c.payload = cluster.JobPayload{Model: "naive", Prop: "Inv2_0", Truncate: n}

	// The verdict reference: the same prefix solved in this process.
	a, q, err := findQuery(c.payload.Model, c.payload.Prop)
	if err != nil {
		return nil, err
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration})
	if err != nil {
		return nil, err
	}
	plan, err := eng.PlanFull(q)
	if err != nil {
		return nil, err
	}
	ctxs, _ := plan.EnumeratePrefix(n, nil)
	t0 := time.Now()
	recs, _, err := plan.SolveRange(ctxs, 0, clients(), nil)
	if err != nil {
		return nil, err
	}
	if c.ref, err = schema.FoldTruncatedRecords(q.Name, recs); err != nil {
		return nil, err
	}
	c.refWallS = time.Since(t0).Seconds()
	return c, nil
}

// unit runs the job once through a fresh coordinator and two workers on
// loopback HTTP. Fresh, because jobs and solved shards are content-addressed:
// a second submit to the same coordinator would be answered from memory.
func (c *clusterPrune) unit(root spanRef) (*unitOut, error) {
	out := &unitOut{layers: newLayers()}
	c.units++
	dir := filepath.Join(c.e.tmp, fmt.Sprintf("journal-%d", c.units))
	defer os.RemoveAll(dir)

	sp := root.child("cluster.start")
	coord, err := cluster.New(cluster.Config{
		ShardSize:      256,
		LocalWorkers:   1,
		IdleLocalAfter: time.Hour, // the pool never empties; measure the workers
		JournalDir:     dir,
		Seed:           c.e.seed,
	})
	if err != nil {
		return nil, err
	}
	base, stopHTTP, err := listenAndServe(coord.Handler())
	if err != nil {
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	transport := &http.Transport{MaxIdleConnsPerHost: clients()}
	var wg sync.WaitGroup
	for i := 0; i < clients(); i++ {
		w := &cluster.Worker{
			Coordinator:  base,
			ID:           fmt.Sprintf("bench-%d", i),
			Workers:      1,
			PollInterval: 5 * time.Millisecond,
			Client: &service.HTTPClient{
				HTTP:           &http.Client{Transport: transport, Timeout: time.Minute},
				RetryTransport: true,
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) // returns when ctx is cancelled
		}()
	}
	sp.end()
	teardown := func() {
		cancel()
		wg.Wait()
		transport.CloseIdleConnections()
		stopHTTP()
		coord.Close()
	}

	t0 := time.Now()
	sp = root.child("cluster.submit")
	id, err := coord.Submit(c.payload)
	sp.end()
	if err != nil {
		teardown()
		return nil, err
	}
	sp = root.child("cluster.wait")
	res, err := coord.Wait(ctx, id)
	sp.end()
	out.wallS = time.Since(t0).Seconds()
	st, _ := coord.StatusOf(id)
	sp = root.child("cluster.stop")
	teardown()
	sp.end()
	if err != nil {
		return nil, err
	}

	out.ops, out.opsWallS = float64(c.payload.Truncate), out.wallS
	out.attempted = st.ShardsTotal + 1
	if st.ShardsDone != st.ShardsTotal {
		out.fail("%d of %d shards done", st.ShardsDone, st.ShardsTotal)
	}
	if diff := cluster.CompareResults(c.payload.Model, c.ref, res); diff != "" {
		out.fail("cluster verdict differs from the in-process reference: %s", diff)
	}
	if want := c.e.exp.NaivePrefix[c.payload.Prop]; res.Outcome.String() != want {
		out.fail("naive/%s prefix folds to %s, expected %s", c.payload.Prop, res.Outcome, want)
	}
	sp = root.child("cluster.read_journal")
	recs, err := cluster.ReadJournal(wal.OSFS{}, dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	out.layers["schema.contexts"] = float64(c.payload.Truncate)
	out.layers["schema.solve_range_s"] = c.refWallS
	out.layers["cluster.journal_records"] = float64(len(recs))
	out.layers["cluster.submit_to_done_s"] = out.wallS
	out.layers["cluster.overhead_ratio"] = 1 - ratio(c.refWallS, out.wallS)
	return out, nil
}

func (c *clusterPrune) probes(layers map[string]float64) error { return layerProbes(c.e, layers) }
func (c *clusterPrune) close()                                 {}

// ---- service_mix ----

type serviceMix struct {
	e     *env
	reqs  []service.VerifyRequest
	want  []string
	units int
	hc    *http.Client
}

// Enqueue-phase shape: an open-loop schedule at a fixed rate, tenants taken
// round-robin.
const (
	enqueueRate    = 500 // jobs per second
	enqueueTenants = 4
)

func setupServiceMix(e *env) (instance, error) {
	s := &serviceMix{e: e}
	checks, err := buildChecks(e.exp.Staged, suiteModels(e), schema.Staged)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(checks), func(i, j int) {
		checks[i], checks[j] = checks[j], checks[i]
	})
	for _, c := range checks {
		s.reqs = append(s.reqs, service.VerifyRequest{Model: c.model, Prop: c.q.Name})
		s.want = append(s.want, c.want)
	}
	s.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients(), MaxConnsPerHost: clients()},
		Timeout:   time.Minute,
	}
	// Warm-up: one server, the light requests once.
	warm := *s
	warm.reqs, warm.want = nil, nil
	for i, r := range s.reqs {
		if r.Model == "bv" || r.Model == "strb" {
			warm.reqs = append(warm.reqs, r)
			warm.want = append(warm.want, s.want[i])
		}
	}
	if _, err := warm.run(spanRef{}, 20, 20); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serviceMix) unit(root spanRef) (*unitOut, error) {
	return s.run(root, s.e.div(3000, 20), s.e.div(enqueueRate*3/2, 20))
}

// terminalLog records when the queue reports each job finished.
type terminalLog struct {
	mu   sync.Mutex
	at   map[string]time.Time
	dead int
	poke chan struct{} // one token per "something new was logged"
}

func newTerminalLog() *terminalLog {
	return &terminalLog{at: map[string]time.Time{}, poke: make(chan struct{}, 1)}
}

func (l *terminalLog) onTerminal(j queue.Job, st queue.State) {
	now := time.Now()
	l.mu.Lock()
	l.at[j.ID] = now
	if st == queue.StateDead {
		l.dead++
	}
	l.mu.Unlock()
	select {
	case l.poke <- struct{}{}:
	default:
	}
}

// wait blocks until n jobs are logged. The queue reports idle as soon as its
// job table is empty, a moment before the last callback runs.
func (l *terminalLog) wait(ctx context.Context, n int) {
	for {
		l.mu.Lock()
		got := len(l.at)
		l.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-l.poke:
		case <-ctx.Done():
			return
		}
	}
}

// run is one mix against a fresh server, cache and queue: cold (every
// unique request once, one caller), warm (two closed-loop callers drawing
// from the same set), enqueue (open loop).
func (s *serviceMix) run(root spanRef, warmPerClient, jobs int) (*unitOut, error) {
	out := &unitOut{layers: newLayers()}
	s.units++
	dir := filepath.Join(s.e.tmp, fmt.Sprintf("service-%d", s.units))
	defer os.RemoveAll(dir)

	sp := root.child("service.start")
	cache, err := vcache.Open(vcache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return nil, err
	}
	term := newTerminalLog()
	srv := service.New(service.Config{
		Cache:           cache,
		Workers:         1,
		QueueDir:        filepath.Join(dir, "queue"),
		QueueConsumers:  2,
		QueueSeed:       s.e.seed,
		QueueOnTerminal: term.onTerminal,
	})
	q := srv.Queue()
	if q == nil {
		return nil, fmt.Errorf("service came up without its queue")
	}
	base, stopHTTP, err := listenAndServe(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	sp.end()
	defer func() {
		sp := root.child("service.stop")
		s.hc.CloseIdleConnections()
		stopHTTP()
		srv.Close()
		sp.end()
	}()

	// verify posts one request and checks the verdict. It returns the client
	// latency, the server-reported time inside the request, and whether every
	// row came from the cache.
	var mu sync.Mutex // guards out across the warm phase's two callers
	verify := func(parent spanRef, i int) (lat, inside time.Duration, cached bool) {
		var resp service.VerifyResponse
		sp := parent.child("service.verify")
		t0 := time.Now()
		status, err := postJSON(s.hc, base+"/v1/verify", &s.reqs[i], &resp)
		lat = time.Since(t0)
		sp.end()
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			out.fail("%s/%s: %v", s.reqs[i].Model, s.reqs[i].Prop, err)
		case status != http.StatusOK:
			out.fail("%s/%s: HTTP %d", s.reqs[i].Model, s.reqs[i].Prop, status)
		case len(resp.Results) != 1 || resp.Results[0].Outcome != s.want[i]:
			out.fail("%s/%s: %+v, expected %s", s.reqs[i].Model, s.reqs[i].Prop, resp.Results, s.want[i])
		default:
			cached = resp.Results[0].Cached
		}
		return lat, time.Duration(resp.ElapsedNS), cached
	}

	// Cold: one closed-loop caller, each unique request once.
	sp = root.child("phase.cold")
	var engineS float64
	var overhead []float64
	t0 := time.Now()
	for i := range s.reqs {
		lat, inside, _ := verify(sp, i)
		engineS += inside.Seconds()
		overhead = append(overhead, ms(lat-inside))
	}
	out.wallS = time.Since(t0).Seconds()
	sp.end()
	coldRuns := srv.EngineRuns()

	// Warm: closed-loop callers that wait for each verdict.
	sp = root.child("phase.warm")
	lats := make([][]float64, clients())
	hits := make([]int, clients())
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := range lats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			csp := sp.child("loadgen.client")
			defer csp.end()
			rng := rand.New(rand.NewSource(s.e.seed*31 + int64(c)))
			for k := 0; k < warmPerClient; k++ {
				lat, inside, cached := verify(csp, rng.Intn(len(s.reqs)))
				lats[c] = append(lats[c], ms(lat))
				if cached {
					hits[c]++
				}
				mu.Lock()
				overhead = append(overhead, ms(lat-inside))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.opsWallS = time.Since(t0).Seconds()
	sp.end()
	var warm []float64
	warmHits := 0
	for c := range lats {
		warm = append(warm, lats[c]...)
		warmHits += hits[c]
	}
	out.ops = float64(len(warm))
	if warmHits != len(warm) {
		out.fail("warm phase: %d of %d responses came from the cache", warmHits, len(warm))
	}
	if runs := srv.EngineRuns(); runs != coldRuns {
		out.fail("warm phase ran the engine %d times", runs-coldRuns)
	}

	// Enqueue: an open loop. Job k is due at k/rate seconds; whichever
	// sender is free takes the next due job, and every latency is counted
	// from the due time, so a stall delays (and is charged to) the jobs
	// behind it.
	sp = root.child("phase.enqueue")
	type sent struct {
		id       string
		due, ack time.Time
		late     time.Duration
		ok       bool
	}
	log := make([]sent, jobs)
	next := make(chan int)
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			csp := sp.child("loadgen.client")
			defer csp.end()
			for k := range next {
				due := start.Add(time.Duration(k) * time.Second / enqueueRate)
				time.Sleep(time.Until(due))
				req := service.EnqueueRequest{
					VerifyRequest: s.reqs[k%len(s.reqs)],
					Tenant:        fmt.Sprintf("tenant-%d", k%enqueueTenants),
					Tag:           fmt.Sprintf("job-%d-%d", s.units, k),
					Force:         true,
				}
				var resp service.EnqueueResponse
				esp := csp.child("service.enqueue")
				sentAt := time.Now()
				status, err := postJSON(s.hc, base+"/v1/enqueue", &req, &resp)
				esp.end()
				log[k] = sent{id: resp.ID, due: due, ack: time.Now(), late: sentAt.Sub(due),
					ok: err == nil && status == http.StatusAccepted}
			}
		}()
	}
	peakDepth := 0
	for k := 0; k < jobs; k++ {
		next <- k
		if k%32 == 0 {
			peakDepth = max(peakDepth, q.Status().Depth)
		}
	}
	close(next)
	wg.Wait()
	wsp := sp.child("queue.wait_idle")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = q.WaitIdle(ctx)
	if err == nil {
		accepted := 0
		for k := range log {
			if log[k].ok {
				accepted++
			}
		}
		term.wait(ctx, accepted)
	}
	cancel()
	wsp.end()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("draining the queue: %w", err)
	}

	var acks, dones, ackToDone, lates []float64
	term.mu.Lock()
	for k := range log {
		out.attempted++
		done, terminal := term.at[log[k].id]
		switch {
		case !log[k].ok:
			out.fail("enqueue %d refused or failed", k)
		case !terminal:
			out.fail("job %d never reached a terminal state", k)
		default:
			acks = append(acks, ms(log[k].ack.Sub(log[k].due)))
			dones = append(dones, ms(done.Sub(log[k].due)))
			ackToDone = append(ackToDone, ms(done.Sub(log[k].ack)))
		}
		lates = append(lates, ms(log[k].late))
	}
	for i := 0; i < term.dead; i++ {
		out.fail("a job was dead-lettered")
	}
	term.mu.Unlock()

	out.layers["service.cold_pass_s"] = out.wallS
	out.layers["service.cold_engine_s"] = engineS
	out.layers["service.overhead_p50_ms"] = median(overhead)
	out.layers["service.warm_p50_ms"] = median(warm)
	out.layers["service.warm_p95_ms"] = quantile(warm, 0.95)
	out.layers["vcache.hit_ratio"] = ratio(float64(warmHits), float64(len(warm)))
	out.layers["queue.ack_p50_ms"] = median(acks)
	out.layers["queue.done_p95_ms"] = quantile(dones, 0.95)
	out.layers["queue.ack_to_done_p50_ms"] = median(ackToDone)
	out.layers["queue.peak_depth"] = float64(peakDepth)
	out.layers["loadgen.late_p95_ms"] = quantile(lates, 0.95)
	return out, nil
}

func (s *serviceMix) probes(layers map[string]float64) error { return layerProbes(s.e, layers) }
func (s *serviceMix) close()                                 { s.hc.CloseIdleConnections() }
