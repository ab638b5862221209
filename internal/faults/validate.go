// Scenario input validation: fail fast on malformed or inconsistent
// scenario JSON with a diagnostic that names the offending line (syntax) or
// field path (semantics), instead of running a garbage campaign or panicking
// deep inside the simulator.

package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/network"
	"repro/internal/protocol"
)

// parseScenarioStrict decodes scenario JSON rejecting unknown fields and
// trailing input, annotating syntax and type errors with line:column.
func parseScenarioStrict(s string) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader([]byte(s)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, annotateJSONError(s, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		off := dec.InputOffset()
		line, col := lineCol(s, off)
		return Scenario{}, fmt.Errorf("faults: bad scenario at line %d col %d: trailing data after the scenario object", line, col)
	}
	return sc, nil
}

func annotateJSONError(s string, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(s, e.Offset)
		return fmt.Errorf("faults: bad scenario at line %d col %d: %v", line, col, e)
	case *json.UnmarshalTypeError:
		line, col := lineCol(s, e.Offset)
		field := e.Field
		if field == "" {
			field = "(top level)"
		}
		return fmt.Errorf("faults: bad scenario at line %d col %d: field %s: cannot decode %s into %s", line, col, field, e.Value, e.Type)
	default:
		return fmt.Errorf("faults: bad scenario: %w", err)
	}
}

func lineCol(s string, off int64) (line, col int) {
	line, col = 1, 1
	if off > int64(len(s)) {
		off = int64(len(s))
	}
	for i := int64(0); i < off; i++ {
		if s[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Protocols is the accepted protocol vocabulary ("" defaults to the first
// table entry, dbft) and KnownProtocols lists it for error text; both derive
// from the frontEnds table. The CLI protocol selector validates against the
// same set.
var Protocols, KnownProtocols = func() (map[string]bool, string) {
	set, names := map[string]bool{"": true}, make([]string, len(frontEnds))
	for i, fe := range frontEnds {
		set[fe.name], names[i] = true, fe.name
	}
	return set, strings.Join(names, ", ")
}()

// schedulers is the accepted scheduler vocabulary ("" defaults to random).
var schedulers = map[string]bool{"": true, "random": true, "fifo": true, "fair": true, "native": true}

// simTopologies is the accepted sim-block topology vocabulary.
var simTopologies = map[string]bool{"": true, "full": true, "gossip": true}

// Validate checks the scenario for internal consistency before a run. Every
// error names the offending field with its path (e.g. plan.storage[1].kind)
// so a hand-written scenario file can be fixed without reading the source.
func (sc Scenario) Validate() error {
	var errs []string
	bad := func(path, format string, args ...any) {
		errs = append(errs, path+": "+fmt.Sprintf(format, args...))
	}

	if !Protocols[sc.Protocol] {
		bad("protocol", "unknown protocol %q (known protocols: %s)", sc.Protocol, KnownProtocols)
	}
	isSBA := sc.Protocol == "sba"
	if isSBA {
		if sc.Durable {
			bad("durable", "durable WAL replicas are dbft-only; protocol \"sba\" uses in-memory crash-recovery snapshots")
		}
		if len(sc.Plan.Storage) > 0 {
			bad("plan.storage", "storage faults are dbft-only (they require durable WALs)")
		}
	}
	if sc.N <= 0 {
		bad("n", "must be positive, got %d", sc.N)
	}
	if sc.T < 0 {
		bad("t", "must be nonnegative, got %d", sc.T)
	}
	if sc.N > 0 && sc.T > 0 && sc.N <= 3*sc.T {
		bad("t", "resilience requires n > 3t, got n=%d t=%d", sc.N, sc.T)
	}
	if sc.MaxRounds < 0 {
		bad("max_rounds", "must be nonnegative, got %d", sc.MaxRounds)
	}
	if sc.MaxSteps < 0 {
		bad("max_steps", "must be nonnegative, got %d", sc.MaxSteps)
	}
	if sc.Tick < 0 {
		bad("tick", "must be nonnegative, got %d", sc.Tick)
	}
	if len(sc.Inputs) == 0 {
		bad("inputs", "at least one correct process is required")
	}
	for i, v := range sc.Inputs {
		if v != 0 && v != 1 {
			bad(fmt.Sprintf("inputs[%d]", i), "binary consensus input must be 0 or 1, got %d", v)
		}
	}
	for i, s := range sc.Byz {
		if !slices.Contains(protocol.Strategies, s) {
			bad(fmt.Sprintf("byz[%d]", i), "unknown strategy %q (want silent, equivocator or liar)", s)
		}
	}
	if sc.N > 0 && len(sc.Inputs)+len(sc.Byz) != sc.N {
		bad("inputs", "%d inputs + %d byzantine strategies != n = %d", len(sc.Inputs), len(sc.Byz), sc.N)
	}
	if len(sc.Byz) > sc.T {
		bad("byz", "%d byzantine processes exceed t = %d", len(sc.Byz), sc.T)
	}
	if !schedulers[sc.Sched] {
		bad("sched", "unknown scheduler %q (want random, fifo, fair or native)", sc.Sched)
	}
	if sim := sc.Sim; sim != nil {
		if !simTopologies[sim.Topology] {
			bad("sim.topology", "unknown topology %q (want full or gossip)", sim.Topology)
		}
		for _, f := range []struct {
			name string
			v    int
		}{
			{"sim.queue_cap", sim.QueueCap},
			{"sim.egress_cap", sim.EgressCap},
			{"sim.dupemap_cap", sim.DupemapCap},
			{"sim.stall_k", sim.StallK},
			{"sim.batch", sim.Batch},
			{"sim.partitions", sim.Partitions},
			{"sim.scan_limit", sim.ScanLimit},
		} {
			if f.v < 0 {
				bad(f.name, "must be nonnegative, got %d", f.v)
			}
		}
		if sim.Topology == "gossip" && sc.Sched != "native" {
			bad("sim.topology", "gossip relays through peer queues and requires sched \"native\"")
		}
		if sc.Sched != "native" && (sim.Batch != 0 || sim.Partitions > 1 || sim.ScanLimit != 0) {
			bad("sim.batch", "batch/partitions/scan_limit only apply under sched \"native\"")
		}
		if sim.Partitions > 1 && sc.Durable {
			bad("sim.partitions", "durable scenarios require partitions <= 1 (the WAL oracle state is not partition-safe)")
		}
	}

	nCorrect := len(sc.Inputs)
	correctProc := func(path string, id network.ProcID) {
		if int(id) < 0 || int(id) >= nCorrect {
			bad(path, "process %d is not a correct process (correct ids are 0..%d)", id, nCorrect-1)
		}
	}

	for i, d := range sc.Plan.Drops {
		path := fmt.Sprintf("plan.drops[%d]", i)
		if d.Prob < 0 || d.Prob > 1 {
			bad(path+".prob", "probability must be in [0,1], got %v", d.Prob)
		}
		// The drop-kind vocabulary is protocol-aware: dbft exchanges BV and
		// AUX, the sba reduction exchanges VOTE and CAND.
		if isSBA {
			switch d.Kind {
			case "", network.MsgVote, network.MsgCand:
			default:
				bad(path+".kind", "unknown message kind %q for protocol \"sba\" (want VOTE or CAND)", d.Kind)
			}
			if d.ParityBV {
				bad(path+".parity_bv", "parity-BV drops are dbft-only")
			}
		} else {
			switch d.Kind {
			case "", network.MsgBV, network.MsgAux:
			default:
				bad(path+".kind", "unknown message kind %q (want BV or AUX)", d.Kind)
			}
		}
	}
	if sc.Plan.DupProb < 0 || sc.Plan.DupProb > 1 {
		bad("plan.dup_prob", "probability must be in [0,1], got %v", sc.Plan.DupProb)
	}
	if sc.Plan.DelayProb < 0 || sc.Plan.DelayProb > 1 {
		bad("plan.delay_prob", "probability must be in [0,1], got %v", sc.Plan.DelayProb)
	}
	if sc.Plan.DelayProb > 0 && sc.Plan.DelaySteps <= 0 {
		bad("plan.delay_steps", "must be positive when delay_prob is set, got %d", sc.Plan.DelaySteps)
	}
	for i, p := range sc.Plan.Partitions {
		path := fmt.Sprintf("plan.partitions[%d]", i)
		if p.Start < 0 {
			bad(path+".start", "must be nonnegative, got %d", p.Start)
		}
		if p.Heal >= 0 && p.Heal <= p.Start {
			bad(path+".heal", "heal step %d is not after start %d (use a negative heal for a permanent cut)", p.Heal, p.Start)
		}
		if len(p.GroupA) == 0 {
			bad(path+".group_a", "empty group cuts nothing")
		}
		for j, id := range p.GroupA {
			if int(id) < 0 || int(id) >= sc.N {
				bad(fmt.Sprintf("%s.group_a[%d]", path, j), "process %d out of range (n = %d)", id, sc.N)
			}
		}
	}
	for i, c := range sc.Plan.Crashes {
		path := fmt.Sprintf("plan.crashes[%d]", i)
		correctProc(path+".proc", c.Proc)
		if c.At < 0 {
			bad(path+".at", "must be nonnegative, got %d", c.At)
		}
		if c.Recover >= 0 && c.Recover <= c.At {
			bad(path+".recover", "recovery step %d is not after the crash at %d (use a negative recover for crash-stop)", c.Recover, c.At)
		}
	}
	for i, f := range sc.Plan.Storage {
		path := fmt.Sprintf("plan.storage[%d]", i)
		if !sc.Durable {
			bad(path, "storage faults require \"durable\": true")
		}
		correctProc(path+".proc", f.Proc)
		if !StorageKinds[f.Kind] {
			bad(path+".kind", "unknown storage fault kind %q (want kill, torn, flip or nosync)", f.Kind)
		}
		if f.Append < 1 {
			bad(path+".append", "write-point ordinal must be >= 1, got %d", f.Append)
		}
		if f.KillAfter < 0 {
			bad(path+".kill_after", "must be nonnegative, got %d", f.KillAfter)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("faults: invalid scenario:\n  %s", strings.Join(errs, "\n  "))
}
