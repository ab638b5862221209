package faults

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dbft"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// The byte-identity contract of the one-store simulator: for any seeded
// scenario the bus must replay exactly what the removed flat in-flight slice
// produced — same step count, same per-process state, same fault-event log —
// because the Scheduler's view of the bus *is* the flat slice under the
// fault plane's filter, entry for entry. The flat side is the fingerprint
// table in testdata/flat_fingerprints.txt, recorded with the flat backend
// before it was deleted; the step-by-step comparison against a flat
// reference loop lives in internal/network (TestBusMatchesFlatReference).
// The tests below pin the contract across the chaos campaign generator, the
// durable torture generator, the sba front-end and the scripted Lemma-7
// livelock plan, and pin native drain mode's determinism across worker
// partition counts.

func runFingerprint(t *testing.T, sc Scenario) (string, Outcome) {
	t.Helper()
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario invalid: %v\n%s", err, sc.Encode())
	}
	out := sc.Run()
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	return sc.Fingerprint(&out), out
}

// flatFingerprints reads the fingerprints the flat backend produced, keyed
// "generator seed".
func flatFingerprints(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/flat_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed fingerprint line %q", line)
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// flatFingerprint is the recorded flat-backend fingerprint of one run.
func flatFingerprint(t *testing.T, table map[string]string, gen string, seed int64) string {
	t.Helper()
	fp, ok := table[fmt.Sprintf("%s %d", gen, seed)]
	if !ok {
		t.Fatalf("no flat fingerprint recorded for %s seed %d", gen, seed)
	}
	return fp
}

// TestChaosCampaignFingerprintsBusVsFlat replays the randomized chaos
// generator seed for seed on the bus and requires the fingerprint the flat
// backend produced — the 200-seed regression net for the one-store
// simulator.
func TestChaosCampaignFingerprintsBusVsFlat(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	flat := flatFingerprints(t)
	c := Campaign{N: 4, T: 1, MaxSteps: 30_000}
	for i := 0; i < seeds; i++ {
		seed := int64(9000 + i)
		sc := c.RandomScenario(seed)
		busFP, busOut := runFingerprint(t, sc)
		if want := flatFingerprint(t, flat, "chaos", seed); busFP != want {
			t.Fatalf("seed %d: fingerprints diverge\n flat %s\n bus  %s (steps=%d decided=%v)\n replay: %s",
				seed, want, busFP, busOut.Steps, busOut.Decided, sc.Encode())
		}
		if busOut.Bus.Delivered == 0 && busOut.Steps > 0 {
			t.Fatalf("seed %d: bus counted no deliveries over %d steps", seed, busOut.Steps)
		}
	}
}

// TestTortureFingerprintsBusVsFlat does the same over the durable torture
// generator: WAL recovery, storage faults and the replay oracle must all
// behave on the bus as they did on the flat backend.
func TestTortureFingerprintsBusVsFlat(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 6
	}
	flat := flatFingerprints(t)
	c := Campaign{N: 4, T: 1, MaxSteps: 30_000, Durable: true}
	for i := 0; i < runs; i++ {
		seed := int64(4400 + i)
		sc := c.RandomScenario(seed)
		busFP, busOut := runFingerprint(t, sc)
		if want := flatFingerprint(t, flat, "torture", seed); busFP != want {
			t.Fatalf("seed %d: durable fingerprints diverge\n flat %s\n bus  %s\n replay: %s",
				seed, want, busFP, sc.Encode())
		}
		if len(busOut.SilentCorruptions) != 0 || len(busOut.Contradictions) != 0 {
			t.Fatalf("seed %d: durability oracle hits on the bus: %v %v",
				seed, busOut.SilentCorruptions, busOut.Contradictions)
		}
	}
}

// TestLivelockFingerprintBusVsFlat pins the Lemma-7 analogue: the scripted
// unfair parity-drop plan livelocks on the bus exactly as it did on the flat
// backend — same (undecided) outcome, same 50k-step fault log, same process
// states.
func TestLivelockFingerprintBusVsFlat(t *testing.T) {
	sc := Scenario{
		N: 4, T: 1, MaxRounds: 12, MaxSteps: 50_000, Tick: 25,
		Inputs: []int{0, 1, 1}, Byz: []string{"silent"}, Sched: "random",
		Plan: UnfairParityDrop(11),
	}
	busFP, busOut := runFingerprint(t, sc)
	if busOut.Decided {
		t.Fatal("unfair plan decided on the bus — livelock expected")
	}
	if want := flatFingerprint(t, flatFingerprints(t), "livelock", 11); busFP != want {
		t.Fatalf("livelock fingerprints diverge:\n flat %s\n bus  %s", want, busFP)
	}
}

// TestNativeFingerprintIndependentOfPartitions is the regression test for the
// shared-PRNG race: two RandomLiar processes drain on different goroutines
// when Partitions > 1, so under the old one-*rand.Rand-for-all-liars layout
// this test both tripped -race and fingerprint-diverged between partition
// counts. With per-liar seeded PRNGs the run is a pure function of the seed
// at any worker count.
func TestNativeFingerprintIndependentOfPartitions(t *testing.T) {
	base := Scenario{
		N: 7, T: 2, MaxRounds: 12, MaxSteps: 40_000, Tick: 25,
		Inputs: []int{0, 1, 1, 0, 1}, Byz: []string{"liar", "liar"}, Sched: "native",
		Sim:  &SimOptions{Batch: 4, Dupemap: true, StallK: 2000},
		Plan: Plan{Seed: 77, Drops: []DropRule{{Prob: 0.2, Budget: 1}}, DelayProb: 0.2, DelaySteps: 40},
	}
	parallel := base
	{
		sim := *base.Sim
		sim.Partitions = 4
		parallel.Sim = &sim
	}
	// Native fingerprints canonicalize the fault-event log (worker
	// interleaving scrambles append order, the multiset is what's invariant),
	// so the two digests are directly comparable.
	seqFP, seqOut := runFingerprint(t, base)
	parFP, parOut := runFingerprint(t, parallel)
	if seqFP != parFP {
		t.Fatalf("native fingerprints depend on partition count:\n p1 %s (steps=%d decided=%v)\n p4 %s (steps=%d decided=%v)",
			seqFP, seqOut.Steps, seqOut.Decided, parFP, parOut.Steps, parOut.Decided)
	}
	if seqOut.Decided != parOut.Decided || seqOut.Steps != parOut.Steps {
		t.Fatalf("outcomes diverge: p1 steps=%d decided=%v, p4 steps=%d decided=%v",
			seqOut.Steps, seqOut.Decided, parOut.Steps, parOut.Decided)
	}
}

// TestNativeGossipConsensusDecides drives the full DBFT stack through the
// sparse kadcast topology: messages relay through intermediate peers' bounded
// queues, the dupemap absorbs retransmission replays, and consensus still
// terminates with safety intact.
func TestNativeGossipConsensusDecides(t *testing.T) {
	sc := Scenario{
		N: 8, T: 2, MaxRounds: 12, MaxSteps: 40_000, Tick: 25,
		Inputs: []int{0, 1, 1, 0, 1, 0}, Byz: []string{"silent", "equivocator"}, Sched: "native",
		Sim:  &SimOptions{Topology: "gossip", Dupemap: true, QueueCap: 4096, Batch: 8, StallK: 4000},
		Plan: Plan{Seed: 5},
	}
	_, out := runFingerprint(t, sc)
	if !out.Decided {
		t.Fatalf("gossip consensus undecided after %d windows (bus %+v, stalled %v)",
			out.Steps, out.Bus, out.Stalled)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety violated over gossip: %v %v", out.AgreementErr, out.ValidityErr)
	}
	if out.Bus.Relayed == 0 {
		t.Fatal("gossip run relayed nothing — topology not engaged")
	}
	if len(out.Stalled) != 0 {
		t.Fatalf("stall detector left peers flagged at decision: %v", out.Stalled)
	}
}

// TestNativeConsensusWithBoundedQueuesDecides: tight per-peer caps drop
// bursts, but tick-driven retransmission recovers everything — the bounded
// heap configuration the 2,000-replica bench runs is live, not a lucky
// accident of oversized queues.
func TestNativeConsensusWithBoundedQueuesDecides(t *testing.T) {
	sc := Scenario{
		N: 7, T: 2, MaxRounds: 12, MaxSteps: 40_000, Tick: 20,
		Inputs: []int{0, 1, 1, 0, 1}, Byz: []string{"liar", "silent"}, Sched: "native",
		Sim:  &SimOptions{QueueCap: 8, Dupemap: true, Batch: 2, StallK: 4000},
		Plan: Plan{Seed: 13},
	}
	_, out := runFingerprint(t, sc)
	if !out.Decided {
		t.Fatalf("bounded-queue consensus undecided after %d windows (bus %+v)", out.Steps, out.Bus)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety violated: %v %v", out.AgreementErr, out.ValidityErr)
	}
	if out.Bus.PeakDepth > 8 {
		t.Fatalf("peak queue depth %d exceeds the cap 8", out.Bus.PeakDepth)
	}
}

// busCounterNames are the process-wide bus counters, in the order
// busCounters lists a BusStats.
var busCounterNames = []string{"bus_enqueued", "bus_delivered", "bus_relayed", "bus_cap_drops",
	"bus_egress_drops", "bus_dupemap_filtered", "bus_stalls"}

func busCounters(s network.BusStats) []int64 {
	return []int64{s.Enqueued, s.Delivered, s.Relayed, s.CapDrops, s.EgressDrops, s.Filtered, s.Stalls}
}

func loadBusCounters() []int64 {
	out := make([]int64, len(busCounterNames))
	for i, name := range busCounterNames {
		out[i] = obs.Default.Counter("network", name).Load()
	}
	return out
}

// checkPublished fails unless every bus counter stands at base plus what
// the run's BusStats say, and the bus_peak_depth gauge at the run's peak
// once it has one.
func checkPublished(t *testing.T, at string, base []int64, st network.BusStats) {
	t.Helper()
	now, want := loadBusCounters(), busCounters(st)
	for i, name := range busCounterNames {
		if got := now[i] - base[i]; got != want[i] {
			t.Fatalf("%s: network.%s moved by %d, the run's BusStats say %d", at, name, got, want[i])
		}
	}
	if g := obs.Default.Gauge("network", "bus_peak_depth").Load(); st.PeakDepth > 0 && g != int64(st.PeakDepth) {
		t.Fatalf("%s: network.bus_peak_depth is %d, the run's BusStats say %d", at, g, st.PeakDepth)
	}
}

// starter broadcasts one BV to every peer from Start, plus one to a process
// outside the system, and never sends from Deliver.
type starter struct {
	id  network.ProcID
	all []network.ProcID
}

func (p *starter) ID() network.ProcID { return p.id }
func (p *starter) Start(send network.Sender) {
	network.Broadcast(send, append(p.all, 99), network.Message{Kind: network.MsgBV, Value: 1})
}
func (p *starter) Deliver(network.Message, network.Sender) {}

// TestBusObsCountersMatchStats: the process-wide bus counters /metricsz and
// obs.Report publish, and the bus_peak_depth gauge, must move by exactly
// what the run's own BusStats say. The bus counts per copy in BusStats alone
// and publishes at the end of every Step and Inject, so the check holds
// after each of those calls, not just at the end: on kadcast with tight
// queues (relays, overflows, replays filtered at enqueue and at delivery),
// under the Scheduler with an injector (drops, duplicates, delays, a crash)
// and a stall detector, and on runs whose only sends come from Start and
// Inject, under the Scheduler and in native mode with an egress cap. Not
// parallel: the counters are process-wide.
func TestBusObsCountersMatchStats(t *testing.T) {
	base := loadBusCounters()
	_, out := runFingerprint(t, goldenBenchShape(40, "gossip", "dbft", 1, 64))
	for i, name := range busCounterNames[:4] {
		if busCounters(out.Bus)[i] == 0 {
			t.Errorf("%s: the kadcast run never moved it (bus %+v)", name, out.Bus)
		}
	}
	if out.Bus.Filtered == 0 {
		t.Errorf("bus_dupemap_filtered: the kadcast run never moved it (bus %+v)", out.Bus)
	}
	checkPublished(t, "kadcast run", base, out.Bus)

	// The Scheduler path: seven dbft replicas under a random schedule and
	// the handmade golden plan, queues capped at 6 copies.
	cfg := dbft.Config{N: 7, T: 2, MaxRounds: 12}
	all := protocol.AllIDs(cfg.N)
	correct, err := dbft.Processes(cfg, []int{0, 1, 1, 0, 1, 0, 1}, all)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]network.Process, len(correct))
	for i, p := range correct {
		procs[i] = p
	}
	inj := NewInjector(goldenHandmade("dbft", "random", nil, 0).Plan)
	sys, err := network.NewSystemOpts(inj.Wrap(procs), network.RandomScheduler{Rng: rand.New(rand.NewSource(7))},
		network.Options{Bus: network.BusOptions{QueueCap: 6, Dupemap: true, StallK: 3}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(sys)
	sys.TickInterval = 25
	base = loadBusCounters()
	for i := 0; i < 3000; i++ {
		progressed, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		checkPublished(t, fmt.Sprintf("scheduler, after step %d", sys.Steps), base, sys.BusStats())
		if !progressed {
			break
		}
	}
	if st := sys.BusStats(); st.Delivered == 0 || st.CapDrops == 0 || st.Filtered == 0 || st.Stalls == 0 {
		t.Errorf("scheduler run left a counter unexercised: %+v", st)
	}

	// Start and Inject only, under the Scheduler and in native mode, where
	// an egress cap of 2 and queues of 4 also drop deferred sends: each of
	// eight starters sends eight copies at once.
	for _, native := range []bool{false, true} {
		name := fmt.Sprintf("start and inject, native=%v", native)
		all := protocol.AllIDs(8)
		procs := make([]network.Process, len(all))
		for i, id := range all {
			procs[i] = &starter{id: id, all: all}
		}
		opts := network.Options{Bus: network.BusOptions{QueueCap: 4, Dupemap: true}}
		if native {
			opts.Bus.EgressCap, opts.Native = 2, &network.NativeOptions{Batch: 1}
		}
		sys, err := network.NewSystemOpts(procs, network.FIFOScheduler{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := loadBusCounters()
		for i := 0; i < 40; i++ {
			if _, err := sys.Step(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPublished(t, fmt.Sprintf("%s, after step %d", name, sys.Steps), base, sys.BusStats())
			// From 0 and 4 this is a Start content again (a replay); from
			// 8 it comes from outside the peer set.
			sys.Inject(network.Message{From: network.ProcID(i % 3 * 4), To: network.ProcID(i % 8), Kind: network.MsgBV, Value: 1})
			checkPublished(t, fmt.Sprintf("%s, after inject %d", name, i), base, sys.BusStats())
		}
		st := sys.BusStats()
		if st.Delivered == 0 || st.CapDrops == 0 || st.Filtered == 0 || (native && st.EgressDrops == 0) {
			t.Errorf("%s left a counter unexercised: %+v", name, st)
		}
	}
}
