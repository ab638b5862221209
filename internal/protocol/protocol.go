// Package protocol is the kit every executable protocol front-end is built
// from — the parts no protocol should re-implement. A front-end (internal/dbft,
// internal/sba) is its round state, its message handlers and the field-by-field
// body of its snapshot; everything around that lives here:
//
//   - the canonical varint codec, the shared network.Message encoding and the
//     versioned snapshot envelope (codec.go);
//   - the quiet-period retransmission Timer and the Outbox it re-sends
//     (retx.go);
//   - the Byzantine scaffold: Silent, and the Adversary that turns a
//     protocol's Lies into the equivocator and liar strategies (byzantine.go);
//   - the Replica contract the fault plane drives, and the invariant and
//     report helpers over it (this file).
//
// The package imports no front-end: adding a protocol adds a package beside
// dbft and sba and one entry in the internal/faults protocol table.
package protocol

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/network"
)

// Replica is a correct process of a round-based binary consensus protocol,
// as the fault plane, the campaign assertions and the reports see it.
type Replica interface {
	network.Process
	// Decided reports the decision and the round it was taken in, if any.
	Decided() (value, round int, ok bool)
	Round() int
	Estimate() int
	// SnapshotBytes is the canonical encoding of the replica's durable state:
	// state-identical replicas yield identical bytes. RestoreBytes replaces
	// the state with a decoded snapshot, simulating a reboot from stable
	// storage; on error the replica is unchanged.
	//
	// The fault plane persists a snapshot after every delivery — the
	// synchronous write-ahead model — and that is a safety requirement, not a
	// shortcut: if a replica persisted less often (say at round boundaries),
	// a crash after broadcasting its round's second-step message but before
	// persisting would let the recovered replica recompute a *different* one
	// and broadcast it for the same round — equivocation, which only
	// Byzantine processes are budgeted for. Persisting before the effects of
	// a delivery become visible keeps a crash-recovery replica inside the
	// "correct process" envelope of the proofs.
	SnapshotBytes() []byte
	RestoreBytes([]byte) error
}

// AllIDs returns the id slice [0, n).
func AllIDs(n int) []network.ProcID {
	out := make([]network.ProcID, n)
	for i := range out {
		out[i] = network.ProcID(i)
	}
	return out
}

// Processes builds one correct process per input with ids 0..len(inputs)-1;
// ids beyond are left to Byzantine strategies.
func Processes[R any](inputs []int, build func(id network.ProcID, input int) (R, error)) ([]R, error) {
	out := make([]R, 0, len(inputs))
	for i, in := range inputs {
		p, err := build(network.ProcID(i), in)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Agreement checks that no two decided processes decided differently,
// returning the offending pair otherwise. name prefixes the error.
func Agreement[R Replica](name string, procs []R) error {
	decidedVal := -1
	var who network.ProcID
	for _, p := range procs {
		v, _, ok := p.Decided()
		if !ok {
			continue
		}
		if decidedVal == -1 {
			decidedVal, who = v, p.ID()
		} else if v != decidedVal {
			return fmt.Errorf("%s: agreement violated: process %d decided %d, process %d decided %d",
				name, who, decidedVal, p.ID(), v)
		}
	}
	return nil
}

// Validity checks that every decision was proposed by some correct process.
func Validity[R Replica](name string, procs []R, inputs []int) error {
	proposed := map[int]bool{}
	for _, in := range inputs {
		proposed[in] = true
	}
	for _, p := range procs {
		if v, _, ok := p.Decided(); ok && !proposed[v] {
			return fmt.Errorf("%s: validity violated: process %d decided %d, which no correct process proposed",
				name, p.ID(), v)
		}
	}
	return nil
}

// AllDecided reports whether every process in the slice decided.
func AllDecided[R Replica](procs []R) bool {
	for _, p := range procs {
		if _, _, ok := p.Decided(); !ok {
			return false
		}
	}
	return true
}

// Describe summarizes the processes' outcomes, one line each in id order.
func Describe[R Replica](procs []R) string {
	sorted := append([]R(nil), procs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	var b strings.Builder
	for _, p := range sorted {
		decided := "-"
		if v, rd, ok := p.Decided(); ok {
			decided = fmt.Sprintf("%d@r%d", v, rd)
		}
		fmt.Fprintf(&b, "p%d: est=%d round=%d decided=%s\n", p.ID(), p.Estimate(), p.Round(), decided)
	}
	return b.String()
}
