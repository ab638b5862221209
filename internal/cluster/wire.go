package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// A shard's answer is one byte string. The worker packs its records once and
// those bytes are its cache entry, the body of its report and, once the
// coordinator has unpacked and certified them, the journal's done record —
// each hop decodes once and never re-encodes. Layout (every integer a
// shortest-form uvarint):
//
//	records  := count record*
//	record   := flags [slots [stats] [ce]]
//	flags    := one byte: bits 0-1 status (0 = index not solved, and the
//	            record ends here; 1 unsat, 2 sat, 3 unknown), bit 2 = stats
//	            follow, bits 3-7 zero
//	stats    := lp_checks pivots rebuilds bb_nodes case_splits, present only
//	            when one of them is non-zero
//	ce       := length json, present exactly when status is sat: the
//	            vcache.CEData JSON of the counterexample, re-certified by
//	            replay on every unpack
//
// The form is canonical — unpackRecords accepts a byte string only if
// packRecords would reproduce it — so equal records are equal bytes on every
// hop.
const (
	wireUnsat   = 1
	wireSat     = 2
	wireUnknown = 3
	recHasStats = 0x04
)

var errTruncated = errors.New("truncated")

// readUvarint consumes one shortest-form uvarint that fits an int.
func readUvarint(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, nil, errTruncated
	case n < 0 || v > math.MaxInt:
		return 0, nil, errors.New("integer overflows")
	case n > 1 && b[n-1] == 0:
		return 0, nil, errors.New("integer not in shortest form")
	}
	return int(v), b[n:], nil
}

func statsFields(st *smt.Stats) [5]*int {
	return [5]*int{&st.LPChecks, &st.Pivots, &st.Rebuilds, &st.BBNodes, &st.CaseSplit}
}

// marshalCE renders a counterexample in the one counterexample codec
// (vcache.CEData). Marshalling that struct cannot fail.
func marshalCE(a *ta.TA, ce *schema.Counterexample) []byte {
	data, err := json.Marshal(vcache.EncodeCE(a, ce))
	if err != nil {
		panic(fmt.Sprintf("cluster: counterexample marshal: %v", err))
	}
	return data
}

// packRecords serializes a shard's per-index records. The automaton is
// needed to name counterexample parameters.
func packRecords(a *ta.TA, recs []schema.IndexRecord) []byte {
	out := binary.AppendUvarint(make([]byte, 0, 2+3*len(recs)), uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		if !r.Done {
			out = append(out, 0)
			continue
		}
		var flags byte
		switch r.Status {
		case smt.Unsat:
			flags = wireUnsat
		case smt.Sat:
			flags = wireSat
		default:
			flags = wireUnknown
		}
		stats := r.Stats
		if stats != (smt.Stats{}) {
			flags |= recHasStats
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(r.Slots))
		if flags&recHasStats != 0 {
			for _, f := range statsFields(&stats) {
				out = binary.AppendUvarint(out, uint64(*f))
			}
		}
		if r.Status == smt.Sat {
			var ce []byte
			if r.CE != nil {
				ce = marshalCE(a, r.CE)
			}
			out = binary.AppendUvarint(out, uint64(len(ce)))
			out = append(out, ce...)
		}
	}
	return out
}

// unpackRecords rebuilds per-index records from their packed form,
// re-certifying any Sat record's counterexample against the automaton and
// query by concrete replay (vcache.CEData.Decode). A Sat record without a
// replayable counterexample is rejected outright: accepting it would let a
// faulty worker or a corrupt journal frame fabricate a Violated verdict. So
// is anything packRecords would not have written: an unknown status, a
// truncated or over-long input, a count or length larger than the bytes left
// (nothing is allocated on an unchecked count), a non-canonical integer,
// stats block or counterexample.
func unpackRecords(a *ta.TA, q *spec.Query, data []byte) ([]schema.IndexRecord, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("record count: %w", err)
	}
	if n > len(rest) {
		return nil, fmt.Errorf("%d records claimed in %d bytes", n, len(rest))
	}
	recs := make([]schema.IndexRecord, n)
	for i := range recs {
		if rest, err = unpackRecord(a, q, &recs[i], rest); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d records", len(rest), n)
	}
	return recs, nil
}

// unpackShard is unpackRecords for a shard of known size: one record per
// context, or the bytes are refused. Every hop that takes packed records from
// outside — a report, a journal frame, a worker's cache file — comes through
// here.
func unpackShard(a *ta.TA, q *spec.Query, data []byte, contexts int) ([]schema.IndexRecord, error) {
	recs, err := unpackRecords(a, q, data)
	if err != nil {
		return nil, err
	}
	if len(recs) != contexts {
		return nil, fmt.Errorf("%d records for %d contexts", len(recs), contexts)
	}
	return recs, nil
}

func unpackRecord(a *ta.TA, q *spec.Query, r *schema.IndexRecord, b []byte) (rest []byte, err error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	flags := b[0]
	b = b[1:]
	if flags == 0 {
		return b, nil
	}
	switch flags &^ recHasStats {
	case wireUnsat:
		r.Status = smt.Unsat
	case wireSat:
		r.Status = smt.Sat
	case wireUnknown:
		r.Status = smt.Unknown
	default:
		return nil, fmt.Errorf("unknown solver status (flags %#02x)", flags)
	}
	r.Done = true
	if r.Slots, b, err = readUvarint(b); err != nil {
		return nil, fmt.Errorf("slots: %w", err)
	}
	if flags&recHasStats != 0 {
		for _, f := range statsFields(&r.Stats) {
			if *f, b, err = readUvarint(b); err != nil {
				return nil, fmt.Errorf("stats: %w", err)
			}
		}
		if r.Stats == (smt.Stats{}) {
			return nil, errors.New("stats block present but all zero")
		}
	}
	if r.Status != smt.Sat {
		return b, nil
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("counterexample length: %w", err)
	}
	if n == 0 {
		return nil, errors.New("sat without a counterexample")
	}
	if n > len(b) {
		return nil, fmt.Errorf("counterexample of %d bytes in %d left", n, len(b))
	}
	var d vcache.CEData
	if err := json.Unmarshal(b[:n], &d); err != nil {
		return nil, fmt.Errorf("counterexample: %w", err)
	}
	if r.CE, err = d.Decode(a, q); err != nil {
		return nil, err
	}
	if !bytes.Equal(marshalCE(a, r.CE), b[:n]) {
		return nil, errors.New("counterexample not in canonical form")
	}
	return b[n:], nil
}

// Contexts travel front-coded: preorder neighbours differ in their last
// guard or two, so each context is the length of the prefix it shares with
// its predecessor plus the guard indices after it.
//
//	contexts := count context*
//	context  := shared suffix_len guard*
//
// shared is the longest common prefix with the previous context (0 for the
// first), which makes this form canonical too.

// packContexts serializes a shard's guard-index contexts.
func packContexts(ctxs [][]int) []byte {
	out := binary.AppendUvarint(make([]byte, 0, 2+4*len(ctxs)), uint64(len(ctxs)))
	var prev []int
	for _, ctx := range ctxs {
		shared := 0
		for shared < len(prev) && shared < len(ctx) && prev[shared] == ctx[shared] {
			shared++
		}
		out = binary.AppendUvarint(out, uint64(shared))
		out = binary.AppendUvarint(out, uint64(len(ctx)-shared))
		for _, gi := range ctx[shared:] {
			out = binary.AppendUvarint(out, uint64(gi))
		}
		prev = ctx
	}
	return out
}

// unpackContexts rebuilds the contexts, each a fresh slice. maxLen bounds one
// context's length — a context is a chain of distinct guards, so the caller
// passes its alphabet size — which bounds what a hostile input can make this
// allocate to maxLen integers per two input bytes.
func unpackContexts(data []byte, maxLen int) ([][]int, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("context count: %w", err)
	}
	if n > len(rest)/2 {
		return nil, fmt.Errorf("%d contexts claimed in %d bytes", n, len(rest))
	}
	ctxs := make([][]int, n)
	var prev []int
	for i := range ctxs {
		var shared, suffix int
		if shared, rest, err = readUvarint(rest); err != nil {
			return nil, fmt.Errorf("context %d: shared prefix: %w", i, err)
		}
		if suffix, rest, err = readUvarint(rest); err != nil {
			return nil, fmt.Errorf("context %d: suffix length: %w", i, err)
		}
		if shared > len(prev) || suffix > len(rest) || shared+suffix > maxLen {
			return nil, fmt.Errorf("context %d: shares %d of %d guards and adds %d with %d bytes left (at most %d guards)",
				i, shared, len(prev), suffix, len(rest), maxLen)
		}
		ctx := make([]int, shared+suffix)
		copy(ctx, prev[:shared])
		for k := shared; k < len(ctx); k++ {
			if ctx[k], rest, err = readUvarint(rest); err != nil {
				return nil, fmt.Errorf("context %d: guard %d: %w", i, k, err)
			}
		}
		if suffix > 0 && shared < len(prev) && ctx[shared] == prev[shared] {
			return nil, fmt.Errorf("context %d: shared prefix %d is not the longest", i, shared)
		}
		ctxs[i], prev = ctx, ctx
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d contexts", len(rest), n)
	}
	return ctxs, nil
}
