package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/network"
)

// simScenario is the `dbftsim -bench-sim` scenario shape: native scheduler,
// bounded queues, replay filter on, stall detection armed, one partition,
// and a mild fair fault mix (5 % budget-1 drops, 5 % delays of 16 steps).
//
// Three in four correct replicas propose 1, the rest 0, placed by the seed.
// With uniform inputs the decision round is a coin flip of the seed (131
// against 228 windows at n = 400), which no bound could contain; at 3:1 the
// minority value stays under the t+1 echo threshold, every seed decides in
// the same round, and the seed still moves who proposes what and the whole
// drop and delay schedule.
func simScenario(n int, topo, protocol string, seed int64) faults.Scenario {
	// Exactly a quarter propose 0, at seeded positions.
	inputs := make([]int, n)
	for i := range inputs {
		if i >= n/4 {
			inputs[i] = 1
		}
	}
	rand.New(rand.NewSource(seed+int64(n))).Shuffle(n, func(i, j int) {
		inputs[i], inputs[j] = inputs[j], inputs[i]
	})
	return faults.Scenario{
		Protocol:  protocol,
		N:         n,
		T:         (n - 1) / 3,
		MaxRounds: 12,
		MaxSteps:  200_000,
		Tick:      25,
		Inputs:    inputs,
		Sched:     "native",
		Sim: &faults.SimOptions{
			QueueCap:   4096,
			Dupemap:    true,
			StallK:     512,
			Topology:   topo,
			Batch:      8,
			Partitions: 1,
		},
		Plan: faults.Plan{
			Seed:       seed + int64(n),
			Drops:      []faults.DropRule{{Prob: 0.05, Budget: 1}},
			DelayProb:  0.05,
			DelaySteps: 16,
		},
	}
}

type sim struct {
	e           *env
	sc          faults.Scenario
	fingerprint string
	units       int
	rate        float64 // msgs/s of the latest repeat
}

func setupSim(e *env, n int, topo string) (instance, error) {
	s := &sim{e: e, sc: simScenario(n, topo, "", e.seed)}
	if err := s.sc.Validate(); err != nil {
		return nil, err
	}
	// Warm-up: the same shape, small.
	small := simScenario(max(32, n/4), topo, "", e.seed)
	if out := small.Run(); out.Err != nil {
		return nil, out.Err
	}
	return s, nil
}

func setupSimMesh(e *env) (instance, error) { return setupSim(e, e.div(400, 32), "full") }

// sim_gossip does not scale below 257 replicas: the relay-and-overflow
// regime it exists for begins where the kadcast tree outgrows 256 (see
// README), so only the smoke scale shrinks it.
func setupSimGossip(e *env) (instance, error) {
	n := 264
	if e.smoke() {
		n = 40
	}
	return setupSim(e, n, "gossip")
}

// checkOutcome holds one scenario outcome against expected.json's simulator
// block, one attempted operation per correct replica plus one for the run.
func checkOutcome(e *env, sc *faults.Scenario, o *faults.Outcome, out *unitOut) {
	want := e.exp.Simulator
	out.attempted += len(o.Participating) + len(o.SBAParticipating) + 1
	if (o.Err != nil) != want.RunErr {
		out.fail("n=%d %s: run error %v", sc.N, sc.Sim.Topology, o.Err)
		return
	}
	undecided := 0
	for _, p := range o.Participating {
		if _, _, ok := p.Decided(); !ok {
			undecided++
		}
	}
	for _, p := range o.SBAParticipating {
		if _, _, ok := p.Decided(); !ok {
			undecided++
		}
	}
	if want.Decided {
		for i := 0; i < undecided; i++ {
			out.fail("n=%d %s: a correct replica did not decide", sc.N, sc.Sim.Topology)
		}
	}
	if (o.AgreementErr != nil) != want.AgreementErr {
		out.fail("agreement: %v", o.AgreementErr)
	}
	if (o.ValidityErr != nil) != want.ValidityErr {
		out.fail("validity: %v", o.ValidityErr)
	}
	if len(o.Stalled) != want.Stalled {
		out.fail("%d stalled peers, expected %d", len(o.Stalled), want.Stalled)
	}
}

func (s *sim) checkFingerprint(o *faults.Outcome) func(out *unitOut) {
	return func(out *unitOut) {
		fp := s.sc.Fingerprint(o)
		if s.fingerprint == "" {
			s.fingerprint = fp
		} else if (fp == s.fingerprint) != s.e.exp.Simulator.SameSeedSame {
			out.fail("same-seed repeat fingerprinted %s, first repeat %s", fp[:12], s.fingerprint[:12])
		}
	}
}

func (s *sim) unit(root spanRef) (*unitOut, error) {
	out := &unitOut{layers: newLayers(), exact: map[string]int64{}}
	sp := root.child("faults.scenario_run")
	t0 := time.Now()
	o := s.sc.Run()
	out.wallS = time.Since(t0).Seconds()
	sp.end()
	out.ops, out.opsWallS = float64(o.Bus.Delivered), out.wallS
	s.rate = ratio(out.ops, out.wallS)
	checkOutcome(s.e, &s.sc, &o, out)

	// Fingerprinting sorts the whole fault-event log; it proves the repeat
	// replayed the first one exactly and is no part of the simulation. Three
	// same-seed repeats are held against each other; later ones only against
	// the exact window and delivery counts.
	s.units++
	if s.units <= 3 {
		out.check = s.checkFingerprint(&o)
	}

	rounds := 0
	for _, p := range o.Participating {
		if _, r, ok := p.Decided(); ok {
			rounds = max(rounds, r)
		}
	}
	events := faults.CountEvents(o.Events)
	out.layers["network.enqueued"] = float64(o.Bus.Enqueued)
	out.layers["network.delivered"] = float64(o.Bus.Delivered)
	out.layers["network.relayed"] = float64(o.Bus.Relayed)
	out.layers["network.cap_drops"] = float64(o.Bus.CapDrops)
	out.layers["network.egress_drops"] = float64(o.Bus.EgressDrops)
	out.layers["network.filtered"] = float64(o.Bus.Filtered)
	out.layers["network.peak_depth"] = float64(o.Bus.PeakDepth)
	out.layers["network.windows"] = float64(o.Steps)
	out.layers["network.us_per_window"] = ratio(out.wallS*1e6, float64(o.Steps))
	out.layers["dbft.rounds_max"] = float64(rounds)
	out.layers["faults.drops"] = float64(events[faults.EvDrop])
	out.layers["faults.delays"] = float64(events[faults.EvDelay])
	out.exact["network.windows"] = int64(o.Steps)
	out.exact["network.delivered"] = o.Bus.Delivered
	return out, nil
}

// rebroadcaster is the benchmark's own no-op protocol: every process
// broadcasts once per round for a fixed number of rounds and moves on when
// it has heard from everyone. It drives the bus exactly as hard as a
// protocol round does, with no protocol handler behind the deliveries.
type rebroadcaster struct {
	id     network.ProcID
	all    []network.ProcID
	rounds int
	round  int
	heard  int
}

func (p *rebroadcaster) ID() network.ProcID { return p.id }

func (p *rebroadcaster) broadcast(send network.Sender) {
	network.Broadcast(send, p.all, network.Message{Kind: network.MsgBV, Round: p.round, Value: 1})
}

func (p *rebroadcaster) Start(send network.Sender) {
	p.round = 1
	p.broadcast(send)
}

func (p *rebroadcaster) Deliver(m network.Message, send network.Sender) {
	if m.Round != p.round {
		return
	}
	p.heard++
	if p.heard == len(p.all) && p.round < p.rounds {
		p.round, p.heard = p.round+1, 0
		p.broadcast(send)
	}
}

// probes measures the bus alone on this workload's size and topology, and
// one decision of the second protocol front-end.
func (s *sim) probes(layers map[string]float64) error {
	if err := layerProbes(s.e, layers); err != nil {
		return err
	}
	n := s.sc.N
	all := make([]network.ProcID, n)
	procs := make([]network.Process, n)
	for i := range all {
		all[i] = network.ProcID(i)
	}
	for i := range procs {
		procs[i] = &rebroadcaster{id: all[i], all: all, rounds: 3}
	}
	opts := network.Options{
		Bus:    network.BusOptions{QueueCap: s.sc.Sim.QueueCap, Dupemap: true, StallK: s.sc.Sim.StallK},
		Native: &network.NativeOptions{Batch: s.sc.Sim.Batch, Partitions: 1},
	}
	if s.sc.Sim.Topology == "gossip" {
		topo, err := network.NewKadcast(n)
		if err != nil {
			return err
		}
		opts.Bus.Topology = topo
	}
	sys, err := network.NewSystemOpts(procs, nil, opts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := sys.Run(s.sc.MaxSteps, nil); err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	stats := sys.BusStats()
	if stats.Delivered == 0 {
		return fmt.Errorf("null-protocol probe delivered nothing")
	}
	null := ratio(float64(stats.Delivered), wall)
	layers["network.probe_null_msgs_per_s"] = null
	layers["dbft.handler_share"] = 1 - ratio(s.rate, null)

	sc := simScenario(s.e.div(200, 16), "full", "sba", s.e.seed)
	if err := sc.Validate(); err != nil {
		return err
	}
	t0 = time.Now()
	o := sc.Run()
	layers["sba.probe_decide_s"] = time.Since(t0).Seconds()
	var chk unitOut
	checkOutcome(s.e, &sc, &o, &chk)
	if chk.failed > 0 {
		return fmt.Errorf("sba probe: %v", chk.problems)
	}
	return nil
}

func (s *sim) close() {}
