package faults

import (
	"math/rand"

	"repro/internal/network"
	"repro/internal/protocol"
)

// tortureFaults draws one durable torture schedule into sc: light network
// chaos, step-scheduled crash-recovery windows (which recover from disk),
// one to three clean write-point kills, and — within the remaining fault
// budget — one amnesia-capable fault. The budget rule mirrors the paper's
// resilience bound: Byzantine processes, crash-stops and amnesia-capable
// replicas together never exceed t.
func (c Campaign) tortureFaults(rng *rand.Rand, sc *Scenario) {
	budget := c.T
	nByz := 0
	if budget > 0 && rng.Intn(3) == 0 {
		nByz = 1
		budget--
	}
	for i := 0; i < nByz; i++ {
		sc.Byz = append(sc.Byz, protocol.Strategies[rng.Intn(len(protocol.Strategies))])
	}
	nCorrect := c.N - nByz
	sc.Inputs = make([]int, nCorrect)
	for i := range sc.Inputs {
		sc.Inputs[i] = rng.Intn(2)
	}

	// Light network chaos so recovery happens under loss and reordering,
	// always fair (bounded budgets) — the termination assertion stays live.
	if rng.Intn(3) == 0 {
		sc.Plan.Drops = []DropRule{{Prob: 0.05 + 0.15*rng.Float64(), Budget: 1}}
	}
	if rng.Intn(3) == 0 {
		sc.Plan.DupProb = 0.1 + 0.2*rng.Float64()
		sc.Plan.DupBudget = 1
	}
	if rng.Intn(3) == 0 {
		sc.Plan.DelayProb = 0.1 + 0.2*rng.Float64()
		sc.Plan.DelaySteps = 20 + rng.Intn(100)
	}
	// Step-scheduled crash-recovery window: in a durable scenario the
	// replica reboots from its WAL, not from injector memory. Quiet durable
	// runs decide within a few hundred steps, so windows are early and short
	// enough to land inside the execution.
	if rng.Intn(2) == 0 {
		at := 1 + rng.Intn(300)
		sc.Plan.Crashes = append(sc.Plan.Crashes, Crash{
			Proc:    network.ProcID(rng.Intn(nCorrect)),
			At:      at,
			Recover: at + 30 + rng.Intn(300),
		})
	}

	// Clean write-point kills: free, any number of replicas, because
	// persist-before-release keeps their recovery inside the correct-process
	// envelope.
	kills := 1 + rng.Intn(3)
	for i := 0; i < kills; i++ {
		kind := StoreKill
		if rng.Intn(2) == 0 {
			kind = StoreTorn
		}
		sc.Plan.Storage = append(sc.Plan.Storage, StorageFault{
			Proc:    network.ProcID(rng.Intn(nCorrect)),
			Append:  1 + rng.Intn(30),
			Kind:    kind,
			Recover: 5 + rng.Intn(200),
		})
	}
	// One amnesia-capable fault within the remaining budget: bit rot or a
	// lying fsync. Its replica is Byzantine-equivalent from that point on.
	if budget > 0 && rng.Intn(2) == 0 {
		kind := StoreFlip
		if rng.Intn(2) == 0 {
			kind = StoreNoSync
		}
		// Short down-windows: a risky replica is excluded from the decided
		// predicate, so only an early recovery exercises the detection and
		// re-join paths before the clean replicas finish.
		sc.Plan.Storage = append(sc.Plan.Storage, StorageFault{
			Proc:      network.ProcID(rng.Intn(nCorrect)),
			Append:    1 + rng.Intn(20),
			Kind:      kind,
			Recover:   5 + rng.Intn(60),
			KillAfter: 1 + rng.Intn(5),
		})
	}
}
