package faults

import (
	"math/rand"
	"testing"

	"repro/internal/network"
)

// The golden replay table: Scenario.Fingerprint digests captured at the
// commit *before* the protocol-kit extraction (1f8ee04). The bus-vs-flat,
// partition-independence and worker-independence suites only prove that runs
// of one commit agree with each other; this table proves they agree with the
// previous commit — state codecs, retransmission timing, Byzantine coin
// streams and crash-recovery all feed the digest, so any behavioural drift in
// a refactor of those layers changes a hex string below. Regenerate a row
// only for a change that is *meant* to alter replay, and say so in CHANGES.md.

// goldenHandmade builds the hand-written rows: n=7 with two Byzantine
// processes, lossy duplicating delaying links and a crash-recovery window, so
// the snapshot path and the retransmission timer are both on the digest.
func goldenHandmade(protocol, sched string, byz []string, partitions int) Scenario {
	sc := Scenario{
		Protocol: protocol, N: 7, T: 2, MaxRounds: 12, MaxSteps: 120_000, Tick: 25,
		Inputs: []int{0, 1, 1, 0, 1}, Byz: byz, Sched: sched,
		Plan: Plan{
			Seed:      4242,
			Drops:     []DropRule{{Prob: 0.2, Budget: 1}},
			DupProb:   0.1,
			DupBudget: 1,
			DelayProb: 0.2, DelaySteps: 30,
			Crashes: []Crash{{Proc: 1, At: 30, Recover: 220}},
		},
	}
	if sched == "native" {
		sc.MaxSteps = 40_000
		sc.Sim = &SimOptions{QueueCap: 64, Batch: 2, Partitions: partitions}
	}
	return sc
}

// goldenDupemap is the native handmade row with a 16-key replay filter: the
// plan's duplicates and the retransmission timer replay far more than 16
// distinct contents per receiver, so the FIFO eviction order is on the
// digest, not just the filter.
func goldenDupemap(protocol string, partitions int) Scenario {
	sc := goldenHandmade(protocol, "native", []string{"liar", "equivocator"}, partitions)
	sc.Sim.Dupemap, sc.Sim.DupemapCap = true, 16
	return sc
}

// goldenBenchShape mirrors benchmark/simulator.go's simScenario (native
// windows, bounded queues, replay filter, 5 % budget-1 drops and 5 % delays,
// a seeded quarter of the replicas proposing 0), so the two shapes the
// repository benchmark times are also pinned here at smoke size.
func goldenBenchShape(n int, topo, protocol string, seed int64, queueCap int) Scenario {
	inputs := make([]int, n)
	for i := range inputs {
		if i >= n/4 {
			inputs[i] = 1
		}
	}
	rand.New(rand.NewSource(seed+int64(n))).Shuffle(n, func(i, j int) {
		inputs[i], inputs[j] = inputs[j], inputs[i]
	})
	return Scenario{
		Protocol: protocol, N: n, T: (n - 1) / 3, MaxRounds: 12, MaxSteps: 200_000, Tick: 25,
		Inputs: inputs, Sched: "native",
		Sim: &SimOptions{QueueCap: queueCap, Dupemap: true, StallK: 512, Topology: topo, Batch: 8, Partitions: 1},
		Plan: Plan{
			Seed:      seed + int64(n),
			Drops:     []DropRule{{Prob: 0.05, Budget: 1}},
			DelayProb: 0.05, DelaySteps: 16,
		},
	}
}

func TestGoldenFingerprints(t *testing.T) {
	liars := []string{"liar", "equivocator"}
	quiet := []string{"equivocator", "silent"}
	dbftChaos := Campaign{N: 4, T: 1}
	sbaChaos := Campaign{Protocol: "sba", N: 4, T: 1}
	torture := Campaign{N: 4, T: 1, Durable: true}
	rows := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"dbft/random/liar+equivocator", goldenHandmade("dbft", "random", liars, 0),
			"cb95a2b1651760cb61efa616985e334aedae29c107e89bbf1fb52881eb46be51"},
		{"dbft/fair/equivocator+silent", goldenHandmade("dbft", "fair", quiet, 0),
			"1e68f1fb37da544d58483fd0d91bca1ddb4165ba87c1dd1af4c7c9e2c35fcfd4"},
		{"dbft/native-p1/liar+equivocator", goldenHandmade("dbft", "native", liars, 1),
			"aef9bd811d519013fc7d080fd9157b5f6285111138f1d28b2127c217f0698a7b"},
		{"dbft/native-p2/liar+equivocator", goldenHandmade("dbft", "native", liars, 2),
			"aef9bd811d519013fc7d080fd9157b5f6285111138f1d28b2127c217f0698a7b"},
		{"sba/random/liar+equivocator", goldenHandmade("sba", "random", liars, 0),
			"82900cdcffa29aa9dfd93c124fa383723c2b20f8681a84cff77096fc02fa5b97"},
		{"sba/fair/equivocator+silent", goldenHandmade("sba", "fair", quiet, 0),
			"262d56be8735799589287cfee99549c880066c95415ca398534ee8f406d85a10"},
		{"sba/native-p1/liar+equivocator", goldenHandmade("sba", "native", liars, 1),
			"1cbc3177c2d19efcdb37c2cf4ce066b1f7442147bfc714dcbf85eb216148f527"},
		{"sba/native-p2/liar+equivocator", goldenHandmade("sba", "native", liars, 2),
			"1cbc3177c2d19efcdb37c2cf4ce066b1f7442147bfc714dcbf85eb216148f527"},
		// The campaign generators' own mixes: a healing partition over a
		// crash-recovery window (twice for dbft, once with an equivocator for
		// sba) and an sba crash-stop.
		{"dbft/chaos-9001", dbftChaos.RandomScenario(9001),
			"cbd17123e5b79bb6253a50af5890f7404c4ee529e2d6b4fe4109074c840737a4"},
		{"dbft/chaos-9021", dbftChaos.RandomScenario(9021),
			"5798d6aec51fffe0291413e73c14e52c433d661f603ed860ef15988cdfb2244c"},
		{"sba/chaos-7207", sbaChaos.RandomScenario(7207),
			"b0e42ca8a2952a7339ffcf043736d3a37c1482c3069efc88e6fc35e237b04f54"},
		{"sba/chaos-7217", sbaChaos.RandomScenario(7217),
			"88be0fd8ec663c7645012e21b6ab796b4836b28ea2867d64620991dcbf10ed0b"},
		// Durable torture schedules: clean kills and torn tails beside a liar;
		// a flipped byte that ends in quarantine; a lying fsync under a crash
		// window.
		{"dbft/torture-4407", torture.RandomScenario(4407),
			"bd35218973e6dd1801f6443ff9f54ff868ed87f5657ee244e7215f607dbcc76a"},
		{"dbft/torture-4409", torture.RandomScenario(4409),
			"a6b05428ffdbd0be8b88ad3e09cbafbb48782beda4ba01e49323e64b21bcb45a"},
		{"dbft/torture-4414", torture.RandomScenario(4414),
			"46166fda23f292ce6605bb6e046b5bcd03ea265e97f5518dd7b385f5f876cf1a"},
		// The Lemma-7 analogue: unbounded parity-BV drops livelock a random
		// schedule for the whole 50,000-step budget, undecided.
		{"dbft/random/unfair-parity-drop", Scenario{
			N: 4, T: 1, MaxRounds: 12, MaxSteps: 50_000, Tick: 25,
			Inputs: []int{0, 1, 1}, Byz: []string{"silent"}, Sched: "random",
			Plan: UnfairParityDrop(11),
		}, "572cb7333c717b4f8659e16a31179aa54e563d0b7b9d677ac57c480c713d164d"},
	}
	// Captured at c17d0fe, before the replay filter and the fault budgets
	// moved from rendered strings to the interned message identity: the
	// filter under eviction pressure, the kadcast relay path under queue
	// overflow, and the two benchmark shapes. A row that pins a mechanism
	// must reach it: a run that filtered, overflowed or relayed nothing is a
	// broken row, not a pass.
	filtered := func(b network.BusStats) bool { return b.Filtered > 0 }
	relayed := func(b network.BusStats) bool { return b.Relayed > 0 }
	overflowed := func(b network.BusStats) bool { return b.Filtered > 0 && b.CapDrops > 0 && b.Relayed > 0 }
	busRows := []struct {
		name    string
		sc      Scenario
		want    string
		engaged func(network.BusStats) bool
	}{
		{"dbft/native-p1/dupemap16", goldenDupemap("dbft", 1),
			"25728bfdb75368d2dbbc5151197659e18903263d3e141fae6362203002c2ec4e", filtered},
		{"dbft/native-p2/dupemap16", goldenDupemap("dbft", 2),
			"25728bfdb75368d2dbbc5151197659e18903263d3e141fae6362203002c2ec4e", filtered},
		{"sba/native-p1/dupemap16", goldenDupemap("sba", 1),
			"81b8dc98911fab9c93d1e130b35d72cd3a3bc300aa92067d06e89cbd9ad85af6", filtered},
		{"sba/native-p2/dupemap16", goldenDupemap("sba", 2),
			"81b8dc98911fab9c93d1e130b35d72cd3a3bc300aa92067d06e89cbd9ad85af6", filtered},
		{"dbft/gossip-40/queuecap64", goldenBenchShape(40, "gossip", "dbft", 1, 64),
			"23cda15e0b84c8501d23e51e41aefad4651ede2e4c1c86c7cc333dd2c54f1e6b", overflowed},
		{"sba/gossip-40/queuecap64", goldenBenchShape(40, "gossip", "sba", 1, 64),
			"a2cdd1226963ebaf1292953c6e3dab87fff6510d051d6149c310401421c41f37", overflowed},
		{"dbft/bench-mesh-32", goldenBenchShape(32, "full", "dbft", 1, 4096),
			"c606f181e9c318e1c1c215f51a35c07a12fb0debb909281aa2b5d4b36487d10d", nil},
		{"dbft/bench-gossip-40", goldenBenchShape(40, "gossip", "dbft", 1, 4096),
			"3f3646d31f197cba3964b5889e1d01aef0554ee3a8245ff8af19216cbea425f2", relayed},
	}
	check := func(name string, sc Scenario, want string) Outcome {
		got, out := runFingerprint(t, sc)
		if got != want {
			t.Errorf("%s: fingerprint %s, golden %s (steps=%d decided=%v events=%v)",
				name, got, want, out.Steps, out.Decided, CountEvents(out.Events))
		}
		return out
	}
	for _, r := range rows {
		check(r.name, r.sc, r.want)
	}
	for _, r := range busRows {
		if out := check(r.name, r.sc, r.want); r.engaged != nil && !r.engaged(out.Bus) {
			t.Errorf("%s: the run never engaged what the row pins (bus %+v)", r.name, out.Bus)
		}
	}
}
