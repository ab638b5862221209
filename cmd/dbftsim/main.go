// Command dbftsim runs an executable consensus protocol front-end on the
// simulated asynchronous network, with configurable Byzantine strategies and
// schedulers. The -protocol selector picks the front-end: dbft (the default —
// Algorithm 1 over the Fig. 1 bv-broadcast) or sba (the SBA*-style binary
// reduction). It also replays the Appendix B non-termination execution
// (-lemma7, dbft-only), runs randomized fault-injection campaigns (-chaos),
// runs storage-fault torture campaigns over the durable WAL-backed replicas
// (-torture, dbft-only) and replays single chaos scenarios (-plan).
//
// Usage examples:
//
//	dbftsim -n 4 -t 1 -inputs 0,1,1 -byz liar -sched fair
//	dbftsim -n 7 -t 2 -inputs 0,1,0,1,1 -byz equivocator,silent -sched random -seed 7
//	dbftsim -protocol sba -n 4 -t 1 -inputs 0,1,1 -byz liar -sched random
//	dbftsim -lemma7 -rounds 12
//	dbftsim -chaos -chaos-seeds 200 -n 4 -t 1 -seed 1
//	dbftsim -chaos -protocol sba -chaos-seeds 200 -n 4 -t 1 -seed 1
//	dbftsim -torture -torture-seeds 200 -n 4 -t 1 -seed 1
//	dbftsim -plan '{"protocol":"sba","n":4,"t":1,...}'   (or -plan @scenario.json)
//
// The campaign modes accept the observability flags -trace out.jsonl (one
// JSONL event per seed), -report out.json (campaign metric snapshot),
// -pprof addr and -progress 2s; an interrupted campaign still flushes a
// valid partial report and exits non-zero.
//
// SIGINT/SIGTERM interrupt a campaign gracefully: the current seed finishes,
// partial results are printed, and the resume seed is reported. A second
// signal force-exits.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/vcache"
)

// watchInterrupt converts SIGINT/SIGTERM into a cooperative stop flag the
// campaign engines poll between seeds. The first signal requests a graceful
// wind-down (finish the current seed, print partial results and the resume
// seed); a second signal force-exits for runs that are stuck mid-seed.
func watchInterrupt() func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintln(os.Stderr, "dbftsim: interrupted; finishing current seed (signal again to force-exit)")
		<-ch
		os.Exit(130)
	}()
	return stopped.Load
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbftsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbftsim", flag.ContinueOnError)
	proto := fs.String("protocol", "dbft", "protocol front-end: dbft or sba (single runs, -chaos and -plan)")
	n := fs.Int("n", 4, "total number of processes")
	t := fs.Int("t", 1, "tolerated Byzantine processes")
	inputs := fs.String("inputs", "0,1,1", "comma-separated binary inputs of the correct processes")
	byz := fs.String("byz", "silent", "comma-separated Byzantine strategies: silent, equivocator, liar")
	sched := fs.String("sched", "fair", "scheduler: fair, random, fifo")
	seed := fs.Int64("seed", 1, "random seed")
	maxRounds := fs.Int("rounds", 12, "round cap")
	maxSteps := fs.Int("steps", 500000, "delivery budget")
	lemma7 := fs.Bool("lemma7", false, "replay the Appendix B non-termination execution")
	printTrace := fs.Int("print-trace", 0, "print the first N message deliveries and a delivery summary")
	chaos := fs.Bool("chaos", false, "run a randomized fault-injection campaign (uses -n, -t, -seed, -rounds, -steps, -tick)")
	chaosSeeds := fs.Int("chaos-seeds", 200, "number of seeds in the -chaos campaign")
	tick := fs.Int("tick", 25, "retransmission tick interval in steps (-chaos, -torture and -plan)")
	chaosV := fs.Bool("chaos-v", false, "print one line per -chaos run")
	torture := fs.Bool("torture", false, "run a storage-fault torture campaign over durable replicas (uses -n, -t, -seed, -rounds, -tick)")
	tortureSeeds := fs.Int("torture-seeds", 200, "number of seeds in the -torture campaign")
	tortureV := fs.Bool("torture-v", false, "print one line per -torture run")
	plan := fs.String("plan", "", "replay one chaos scenario: inline JSON or @file")
	fingerprint := fs.Bool("fingerprint", false, "with -plan: print the outcome's replay fingerprint (byte-identity checks)")
	workers := fs.Int("j", runtime.NumCPU(), "campaign worker count for -chaos and -torture (results are deterministic at any count)")
	version := fs.Bool("version", false, "print the verification engine version and exit")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		fmt.Printf("dbftsim engine %s\n", vcache.EngineVersion)
		return nil
	}
	if !faults.Protocols[*proto] {
		return fmt.Errorf("unknown protocol %q (known protocols: %s)", *proto, faults.KnownProtocols)
	}
	isSBA := *proto == "sba"
	if *lemma7 {
		if isSBA {
			return fmt.Errorf("-lemma7 replays a dbft-specific execution; it does not accept -protocol sba")
		}
		return runLemma7(*maxRounds)
	}
	if *plan != "" {
		return runPlan(*plan, *proto, *fingerprint)
	}
	if *chaos {
		return runChaos(*proto, *chaosSeeds, *seed, *n, *t, *maxRounds, *maxSteps, *tick, *workers, *chaosV, of)
	}
	if *torture {
		if isSBA {
			return fmt.Errorf("-torture exercises durable WAL replicas, which are dbft-only; it does not accept -protocol sba")
		}
		return runTorture(*tortureSeeds, *seed, *n, *t, *maxRounds, *tick, *workers, *tortureV, of)
	}

	ins, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	strategies := strings.Split(*byz, ",")
	if len(ins)+len(strategies) != *n {
		return fmt.Errorf("%d inputs + %d byzantine strategies != n = %d", len(ins), len(strategies), *n)
	}
	if isSBA {
		return runSingleSBA(ins, strategies, *n, *t, *maxRounds, *maxSteps, *tick, *seed, *sched)
	}

	cfg := dbft.Config{N: *n, T: *t, MaxRounds: *maxRounds}
	all := protocol.AllIDs(*n)
	correct, err := dbft.Processes(cfg, ins, all)
	if err != nil {
		return err
	}
	byzSet := map[network.ProcID]bool{}
	procs := make([]network.Process, 0, *n)
	for _, p := range correct {
		procs = append(procs, p)
	}
	for i, strat := range strategies {
		id := network.ProcID(len(ins) + i)
		byzSet[id] = true
		p, err := dbft.Lies.Strategy(strings.TrimSpace(strat), id, all, len(ins)/2, *seed)
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}

	var scheduler network.Scheduler
	switch *sched {
	case "fair":
		scheduler = fairness.Scheduler{Byzantine: byzSet}
	case "random":
		scheduler = network.RandomScheduler{Rng: rand.New(rand.NewSource(*seed + 2))}
	case "fifo":
		scheduler = network.FIFOScheduler{}
	default:
		return fmt.Errorf("unknown scheduler %q", *sched)
	}

	sys, err := network.NewSystem(procs, scheduler)
	if err != nil {
		return err
	}
	sys.RecordTrace = *printTrace > 0
	steps, done, err := fairness.RunToDecision(sys, correct, *maxSteps)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d t=%d f=%d scheduler=%s steps=%d\n", *n, *t, len(strategies), *sched, steps)
	if *printTrace > 0 {
		fmt.Print(network.FormatTrace(sys.Trace, *printTrace))
		fmt.Println(network.SummarizeTrace(sys.Trace).Format())
	}
	fmt.Print(protocol.Describe(correct))
	if done {
		if err := protocol.Agreement("dbft", correct); err != nil {
			fmt.Println("AGREEMENT VIOLATED:", err)
		} else {
			fmt.Println("agreement: ok")
		}
		if err := protocol.Validity("dbft", correct, ins); err != nil {
			fmt.Println("VALIDITY VIOLATED:", err)
		} else {
			fmt.Println("validity: ok")
		}
		if g := fairness.FirstGoodRound(correct, *maxRounds); g >= 0 {
			fmt.Printf("fairness witness: round %d was %d-good\n", g, g%2)
		}
	} else {
		fmt.Println("no decision within the step budget")
	}
	return nil
}

// runSingleSBA runs one sba-reduction execution through the fault-injection
// plane with an empty fault plan — the sba analogue of the dbft single-run
// path, sharing the scenario machinery (scheduler wiring, retransmission
// ticks, seeded per-liar PRNGs) with -chaos and -plan.
func runSingleSBA(ins []int, strategies []string, n, t, maxRounds, maxSteps, tick int, seed int64, sched string) error {
	byz := make([]string, 0, len(strategies))
	for _, s := range strategies {
		byz = append(byz, strings.TrimSpace(s))
	}
	sc := faults.Scenario{
		Protocol:  "sba",
		N:         n,
		T:         t,
		MaxRounds: maxRounds,
		MaxSteps:  maxSteps,
		Tick:      tick,
		Inputs:    ins,
		Byz:       byz,
		Sched:     sched,
		Plan:      faults.Plan{Seed: seed},
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	out := sc.Run()
	if out.Err != nil {
		return out.Err
	}
	fmt.Printf("protocol=sba n=%d t=%d f=%d scheduler=%s steps=%d\n", n, t, len(byz), sched, out.Steps)
	fmt.Print(protocol.Describe(out.SBAParticipating))
	if out.Decided {
		if out.AgreementErr != nil {
			fmt.Println("AGREEMENT VIOLATED:", out.AgreementErr)
		} else {
			fmt.Println("agreement: ok")
		}
		if out.ValidityErr != nil {
			fmt.Println("VALIDITY VIOLATED:", out.ValidityErr)
		} else {
			fmt.Println("validity: ok")
		}
	} else {
		fmt.Println("no decision within the step budget")
	}
	return nil
}

func parseInputs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || (v != 0 && v != 1) {
			return nil, fmt.Errorf("invalid input %q (want 0 or 1)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// runChaos executes a randomized fault-injection campaign and exits non-zero
// on any safety/termination violation, printing each violation's seed and
// replayable scenario JSON. An interrupt also exits non-zero, after flushing
// a partial report covering the completed seed prefix.
func runChaos(proto string, runs int, baseSeed int64, n, t, maxRounds, maxSteps, tick, workers int, verbose bool, of *obsFlags) error {
	sink, err := of.open("dbftsim chaos")
	if err != nil {
		return err
	}
	defer sink.Close()
	c := faults.Campaign{
		Protocol: proto,
		Runs:     runs,
		BaseSeed: baseSeed,
		N:        n,
		T:        t,

		MaxRounds: maxRounds,
		MaxSteps:  maxSteps,
		Tick:      tick,

		Stop:    watchInterrupt(),
		Workers: workers,
		Trace:   sink.Tracer,
	}
	if verbose {
		c.Verbose = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	stopProgress := of.startProgress(runs, c.Stop)
	res := c.Run()
	stopProgress()
	rep := campaignReport("dbftsim chaos", "chaos", res.Runs, res.Decided,
		len(res.Violations), res.Events, workers, res.Interrupted)
	if err := sink.Flush(rep); err != nil {
		return err
	}
	fmt.Println(res.String())
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Println(v.String())
		}
		return fmt.Errorf("%d violations in %d runs", len(res.Violations), res.Runs)
	}
	if res.Interrupted {
		return fmt.Errorf("chaos campaign interrupted after %d/%d seeds; resume with -seed %d", res.Runs, runs, res.NextSeed)
	}
	return nil
}

// runTorture executes a storage-fault torture campaign: every seed runs the
// consensus over durable WAL-backed replicas while the injector kills,
// tears, bit-flips and fsync-lies at the storage layer, then asserts
// Agreement/Validity, post-recovery consistency and byte-identical replay.
// Exits non-zero on any violation, printing each one's replayable seed and
// scenario JSON.
func runTorture(runs int, baseSeed int64, n, t, maxRounds, tick, workers int, verbose bool, of *obsFlags) error {
	sink, err := of.open("dbftsim torture")
	if err != nil {
		return err
	}
	defer sink.Close()
	c := faults.TortureCampaign{
		Runs:     runs,
		BaseSeed: baseSeed,
		N:        n,
		T:        t,

		MaxRounds: maxRounds,
		Tick:      tick,

		Stop:    watchInterrupt(),
		Workers: workers,
		Trace:   sink.Tracer,
	}
	if verbose {
		c.Verbose = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	stopProgress := of.startProgress(runs, c.Stop)
	res := c.Run()
	stopProgress()
	rep := campaignReport("dbftsim torture", "torture", res.Runs, res.Decided,
		len(res.Violations), res.Events, workers, res.Interrupted)
	if err := sink.Flush(rep); err != nil {
		return err
	}
	fmt.Println(res.String())
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Println(v.String())
		}
		return fmt.Errorf("%d violations in %d runs", len(res.Violations), res.Runs)
	}
	if res.Interrupted {
		return fmt.Errorf("torture campaign interrupted after %d/%d seeds; resume with -seed %d", res.Runs, runs, res.NextSeed)
	}
	return nil
}

// runPlan replays a single chaos scenario (inline JSON or @file) and prints
// the outcome, the per-process states and the fault log. With fingerprint
// set it also prints the outcome's replay digest, the currency of the
// flat-vs-bus and partition-independence byte-identity checks. A scenario
// without a protocol field inherits the -protocol selector; one with a
// protocol field must agree with a non-default selector.
func runPlan(spec, proto string, fingerprint bool) error {
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return err
		}
		spec = string(b)
	}
	sc, err := faults.ParseScenario(spec)
	if err != nil {
		return err
	}
	if sc.Protocol == "" && proto != "dbft" {
		sc.Protocol = proto
		if err := sc.Validate(); err != nil {
			return err
		}
	} else if proto != "dbft" && sc.Protocol != proto {
		return fmt.Errorf("-protocol %s contradicts the scenario's protocol %q (known protocols: %s)",
			proto, sc.Protocol, faults.KnownProtocols)
	}
	out := sc.Run()
	if out.Err != nil {
		return out.Err
	}
	if fingerprint {
		fmt.Printf("fingerprint: %s\n", sc.Fingerprint(&out))
	}
	fair := "unfair"
	if sc.Plan.FairDelivery() {
		fair = "fair"
	}
	fmt.Printf("scenario: protocol=%s n=%d t=%d seed=%d plan=%s steps=%d decided=%v\n",
		protoName(sc.Protocol), sc.N, sc.T, sc.Plan.Seed, fair, out.Steps, out.Decided)
	fmt.Print(protocol.Describe(out.Replicas()))
	if out.AgreementErr != nil {
		fmt.Println("AGREEMENT VIOLATED:", out.AgreementErr)
	} else {
		fmt.Println("agreement: ok")
	}
	if out.ValidityErr != nil {
		fmt.Println("VALIDITY VIOLATED:", out.ValidityErr)
	} else {
		fmt.Println("validity: ok")
	}
	counts := faults.CountEvents(out.Events)
	fmt.Printf("faults: %d drops, %d dups, %d delays, %d lost, %d crashes, %d recoveries\n",
		counts[faults.EvDrop], counts[faults.EvDuplicate], counts[faults.EvDelay],
		counts[faults.EvLost], counts[faults.EvCrash], counts[faults.EvRecover])
	if sc.Durable {
		fmt.Printf("storage: %d kills, %d torn, %d flips, %d nosync, %d replays; %d replay-checks passed\n",
			counts[faults.EvKill], counts[faults.EvTorn], counts[faults.EvFlip],
			counts[faults.EvNoSync], counts[faults.EvReplay], out.ReplayChecked)
		for _, id := range out.Quarantined {
			fmt.Printf("quarantined: p%d (%s)\n", id, out.QuarantineReasons[id])
		}
		for _, e := range out.ReplayErrs {
			fmt.Println("REPLAY MISMATCH:", e)
		}
	}
	fmt.Print(faults.FormatEvents(out.Events, 20))
	return nil
}

func protoName(p string) string {
	if p == "" {
		return "dbft"
	}
	return p
}

func runLemma7(rounds int) error {
	results, err := dbft.RunLemma7(rounds)
	if err != nil {
		return err
	}
	fmt.Println("Appendix B (Lemma 7): without fairness, Algorithm 1 never terminates.")
	fmt.Println("n=4, t=1, one Byzantine process; correct estimates after each round:")
	for _, r := range results {
		fmt.Printf("  round %2d (parity %d): estimates %v\n", r.Round, r.Round%2, r.Estimates)
	}
	fmt.Printf("after %d rounds no process has decided; the estimate multiset cycles with period 2\n", rounds)
	return nil
}
