package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/network"
)

// SimOptions select the event-bus behavior for a scenario. The zero value
// (or a nil pointer) is the reliable, unbounded full-mesh bus. The queue,
// dupemap, stall and topology knobs engage the bus's bounded plumbing;
// Batch/Partitions/ScanLimit only apply under Sched "native".
type SimOptions struct {
	QueueCap   int    `json:"queue_cap,omitempty"`
	EgressCap  int    `json:"egress_cap,omitempty"`
	Dupemap    bool   `json:"dupemap,omitempty"`
	DupemapCap int    `json:"dupemap_cap,omitempty"`
	StallK     int    `json:"stall_k,omitempty"`
	Topology   string `json:"topology,omitempty"` // "", "full" or "gossip"
	Batch      int    `json:"batch,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
	ScanLimit  int    `json:"scan_limit,omitempty"`
}

// networkOptions lowers the scenario's sim block into network.Options.
func (sc Scenario) networkOptions() (network.Options, error) {
	sim := sc.Sim
	if sim == nil {
		sim = &SimOptions{}
	}
	opts := network.Options{Bus: network.BusOptions{
		QueueCap:   sim.QueueCap,
		EgressCap:  sim.EgressCap,
		Dupemap:    sim.Dupemap,
		DupemapCap: sim.DupemapCap,
		StallK:     sim.StallK,
	}}
	switch sim.Topology {
	case "", "full":
	case "gossip":
		topo, err := network.NewKadcast(sc.N)
		if err != nil {
			return opts, err
		}
		opts.Bus.Topology = topo
	default:
		return opts, fmt.Errorf("unknown sim topology %q", sim.Topology)
	}
	if sc.Sched == "native" {
		opts.Native = &network.NativeOptions{
			Batch:      sim.Batch,
			Partitions: sim.Partitions,
			ScanLimit:  sim.ScanLimit,
		}
	}
	return opts, nil
}

// canonicalEvents reports whether the fingerprint must canonicalize (sort)
// the fault-event log. True for every native-mode run — with Partitions > 1
// worker interleaving scrambles the order in which worker-side events
// (EvLost, EvCrash, EvRecover) are appended, so the digest covers the event
// multiset, not the order. Sorting at Partitions <= 1 too keeps a native
// run's fingerprint comparable across partition counts: the delivery
// semantics (and hence the multiset) are partition-independent by
// construction.
func (sc Scenario) canonicalEvents() bool {
	return sc.Sched == "native"
}

// Fingerprint digests everything replay-relevant about an outcome: step
// count, the decided predicate, every correct process's canonical state
// snapshot, the fault-event log, and the durable-run verdict fields. Two
// runs of one seeded scenario must produce equal fingerprints, in native
// mode at any partition count too.
func (sc Scenario) Fingerprint(out *Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d decided=%v err=%v agreement=%v validity=%v\n",
		out.Steps, out.Decided, out.Err != nil, out.AgreementErr, out.ValidityErr)
	for _, p := range out.Replicas() {
		fmt.Fprintf(h, "p%d:", p.ID())
		h.Write(p.SnapshotBytes())
		h.Write([]byte{'\n'})
	}
	// Each event is rendered once; equal lines are indistinguishable in the
	// digest, so sorting the lines is the stable sort of the events.
	lines := make([]string, len(out.Events))
	for i, e := range out.Events {
		lines[i] = e.String()
	}
	if sc.canonicalEvents() {
		sort.Strings(lines)
	}
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	for _, q := range out.Quarantined {
		fmt.Fprintf(h, "quarantined=%d:%s\n", q, out.QuarantineReasons[q])
	}
	for _, s := range out.Contradictions {
		fmt.Fprintf(h, "contradiction=%s\n", s)
	}
	for _, s := range out.SilentCorruptions {
		fmt.Fprintf(h, "silent=%s\n", s)
	}
	for _, s := range out.ReplayErrs {
		fmt.Fprintf(h, "replayerr=%s\n", s)
	}
	fmt.Fprintf(h, "replaychecked=%d\n", out.ReplayChecked)
	return hex.EncodeToString(h.Sum(nil))
}
