package cluster

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// WireRecord is the JSON form of one schema.IndexRecord as it crosses the
// worker→coordinator boundary and enters the journal. Counterexamples travel
// in the vcache.CEData shape (parameters by name, positional init/steps) and
// are re-certified by replay on decode — neither a worker's report nor a
// journal frame is ever trusted to carry a violation without proof.
type WireRecord struct {
	Done   bool           `json:"done"`
	Status string         `json:"status,omitempty"`
	Slots  int            `json:"slots,omitempty"`
	Stats  smt.Stats      `json:"stats"`
	CE     *vcache.CEData `json:"ce,omitempty"`
}

func statusLabel(st smt.Status) string {
	switch st {
	case smt.Sat:
		return "sat"
	case smt.Unsat:
		return "unsat"
	case smt.Unknown:
		return "unknown"
	default:
		return ""
	}
}

func parseStatus(s string) (smt.Status, error) {
	switch s {
	case "sat":
		return smt.Sat, nil
	case "unsat":
		return smt.Unsat, nil
	case "unknown":
		return smt.Unknown, nil
	default:
		return 0, fmt.Errorf("cluster: unknown solver status %q", s)
	}
}

// encodeRecords serializes a shard's per-index records for reporting or
// journaling. The automaton is needed to name counterexample parameters.
func encodeRecords(a *ta.TA, recs []schema.IndexRecord) []WireRecord {
	out := make([]WireRecord, len(recs))
	for i, r := range recs {
		if !r.Done {
			continue
		}
		out[i] = WireRecord{Done: true, Status: statusLabel(r.Status), Slots: r.Slots, Stats: r.Stats}
		if r.CE != nil {
			out[i].CE = vcache.EncodeCE(a, r.CE)
		}
	}
	return out
}

// decodeRecords rebuilds per-index records from the wire, re-certifying any
// Sat record's counterexample against the automaton and query by concrete
// replay (vcache.CEData.Decode). A Sat record without a replayable counterexample
// is rejected outright: accepting it would let a faulty worker or a corrupt
// journal frame fabricate a Violated verdict.
func decodeRecords(a *ta.TA, q *spec.Query, wrecs []WireRecord) ([]schema.IndexRecord, error) {
	recs := make([]schema.IndexRecord, len(wrecs))
	for i, wr := range wrecs {
		if !wr.Done {
			continue
		}
		st, err := parseStatus(wr.Status)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs[i] = schema.IndexRecord{Done: true, Status: st, Slots: wr.Slots, Stats: wr.Stats}
		if st == smt.Sat {
			if wr.CE == nil {
				return nil, fmt.Errorf("record %d: sat without a counterexample", i)
			}
			if recs[i].CE, err = wr.CE.Decode(a, q); err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
		}
	}
	return recs, nil
}
