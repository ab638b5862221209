package faults

import (
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
)

// The byte-identity contract of the event-bus rearchitecture: for any seeded
// scenario the bus (the default backend) must replay exactly what the legacy
// flat in-flight slice produced — same step count, same per-process state,
// same fault-event log — because the arrival-ordered merge of the per-peer
// queues *is* the flat slice, entry for entry. These tests pin that contract
// across the chaos campaign generator, the durable torture generator and the
// scripted Lemma-7 livelock plan, and pin native drain mode's determinism
// across worker partition counts.

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

func withBackend(sc Scenario, backend network.Backend) Scenario {
	sim := SimOptions{}
	if sc.Sim != nil {
		sim = *sc.Sim
	}
	sim.Backend = backend
	sc.Sim = &sim
	return sc
}

// TestChaosCampaignFingerprintsBusVsFlat replays the randomized chaos
// generator seed for seed on both backends and requires bit-identical
// fingerprints — the 200-seed regression net for the rearchitecture.
func TestChaosCampaignFingerprintsBusVsFlat(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	c := Campaign{N: 4, T: 1, MaxSteps: 30_000}
	for i := 0; i < seeds; i++ {
		seed := int64(9000 + i)
		sc := c.RandomScenario(seed)
		flatFP, flatOut := runFingerprint(t, withBackend(sc, network.BackendFlat))
		busFP, busOut := runFingerprint(t, withBackend(sc, network.BackendBus))
		if flatFP != busFP {
			t.Fatalf("seed %d: fingerprints diverge\n flat %s (steps=%d decided=%v)\n bus  %s (steps=%d decided=%v)\n replay: %s",
				seed, flatFP, flatOut.Steps, flatOut.Decided, busFP, busOut.Steps, busOut.Decided, sc.Encode())
		}
		if busOut.Bus.Delivered == 0 && busOut.Steps > 0 && flatOut.Steps > 0 {
			t.Fatalf("seed %d: bus counted no deliveries over %d steps", seed, busOut.Steps)
		}
	}
}

// TestTortureFingerprintsBusVsFlat does the same over the durable torture
// generator: WAL recovery, storage faults and the replay oracle must all
// behave identically on the bus.
func TestTortureFingerprintsBusVsFlat(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 6
	}
	c := TortureCampaign{N: 4, T: 1, MaxSteps: 30_000}
	for i := 0; i < runs; i++ {
		seed := int64(4400 + i)
		sc := c.RandomScenario(seed)
		flatFP, _ := runFingerprint(t, withBackend(sc, network.BackendFlat))
		busFP, busOut := runFingerprint(t, withBackend(sc, network.BackendBus))
		if flatFP != busFP {
			t.Fatalf("seed %d: durable fingerprints diverge\n flat %s\n bus  %s\n replay: %s",
				seed, flatFP, busFP, sc.Encode())
		}
		if len(busOut.SilentCorruptions) != 0 || len(busOut.Contradictions) != 0 {
			t.Fatalf("seed %d: durability oracle hits on the bus: %v %v",
				seed, busOut.SilentCorruptions, busOut.Contradictions)
		}
	}
}

// TestLivelockFingerprintBusVsFlat pins the Lemma-7 analogue: the scripted
// unfair parity-drop plan livelocks identically on both backends — same
// (undecided) outcome, same 50k-step fault log, same process states.
func TestLivelockFingerprintBusVsFlat(t *testing.T) {
	sc := Scenario{
		N: 4, T: 1, MaxRounds: 12, MaxSteps: 50_000, Tick: 25,
		Inputs: []int{0, 1, 1}, Byz: []string{"silent"}, Sched: "random",
		Plan: UnfairParityDrop(11),
	}
	flatFP, flatOut := runFingerprint(t, withBackend(sc, network.BackendFlat))
	busFP, busOut := runFingerprint(t, withBackend(sc, network.BackendBus))
	if flatOut.Decided || busOut.Decided {
		t.Fatalf("unfair plan decided (flat=%v bus=%v) — livelock expected", flatOut.Decided, busOut.Decided)
	}
	if flatFP != busFP {
		t.Fatalf("livelock fingerprints diverge:\n flat %s\n bus  %s", flatFP, busFP)
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

// TestBusObsCountersMatchStats: the process-wide bus counters /metricsz and
// obs.Report publish must move by exactly what the run's own BusStats say,
// on the topology that exercises them all — kadcast with tight queues relays,
// overflows and filters replays at enqueue as well as at delivery. Not
// parallel: the counters are process-wide.
func TestBusObsCountersMatchStats(t *testing.T) {
	names := []string{"bus_enqueued", "bus_delivered", "bus_relayed", "bus_cap_drops", "bus_dupemap_filtered"}
	load := func() []int64 {
		out := make([]int64, len(names))
		for i, name := range names {
			out[i] = obs.Default.Counter("network", name).Load()
		}
		return out
	}
	before := load()
	_, out := runFingerprint(t, goldenBenchShape(40, "gossip", "dbft", 1, 64))
	after := load()
	want := []int64{out.Bus.Enqueued, out.Bus.Delivered, out.Bus.Relayed, out.Bus.CapDrops, out.Bus.Filtered}
	for i, name := range names {
		if want[i] == 0 {
			t.Errorf("%s: the run never moved it (bus %+v)", name, out.Bus)
		}
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("network.%s moved by %d, the run's BusStats say %d", name, got, want[i])
		}
	}
}
