package vcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/wal"
)

// On-disk entry frame: a 4-byte magic, then the payload as one WAL record
// (internal/wal's FrameRecord: 4-byte little-endian length, 4-byte CRC32C,
// JSON payload). A torn tail fails the length check, a flipped byte fails
// the checksum, and either way the entry is classified corrupt and treated
// as a miss — never decoded into a verdict.
const entryMagic = "VCE1"

// ErrCorrupt marks an entry that failed structural validation: bad magic,
// torn frame, checksum mismatch, or undecodable payload. Callers treat it as
// a miss and re-verify.
var ErrCorrupt = errors.New("vcache: corrupt entry")

// Entry is the cached deterministic slice of one verification result. It
// deliberately excludes everything observational (elapsed time, phase
// timings): a cache hit reports its own, much smaller, wall clock.
type Entry struct {
	// Key is the content address the entry was stored under; validated
	// against the request key on load.
	Key string `json:"key"`
	// Engine is the EngineVersion that produced the verdict.
	Engine  string  `json:"engine"`
	Query   string  `json:"query"`
	Mode    string  `json:"mode"`
	Outcome string  `json:"outcome"`
	Schemas int     `json:"schemas"`
	AvgLen  float64 `json:"avg_len"`
	// Solver is the folded SMT effort (deterministic at any worker count).
	Solver smt.Stats `json:"solver"`
	// CE is the certified counterexample when Outcome == "violated".
	CE *CEData `json:"ce,omitempty"`
}

// CEData serializes a counterexample run positionally against the automaton
// the key was derived from: location and rule indices are stable because any
// reordering changes the canonical serialization, hence the key.
type CEData struct {
	// Params maps parameter names to the concrete valuation.
	Params map[string]int64 `json:"params"`
	// InitK / InitV are the initial configuration (location counters indexed
	// by ta.LocID, shared values indexed by position in TA.Shared).
	InitK []int64 `json:"init_k"`
	InitV []int64 `json:"init_v"`
	// Steps are the accelerated firings (rule index + factor).
	Steps []CEStep `json:"steps"`
	// Schema is the ordered guard context of full-enumeration
	// counterexamples (nil for staged).
	Schema []string `json:"schema,omitempty"`
}

// CEStep is one accelerated firing.
type CEStep struct {
	Rule   int   `json:"rule"`
	Factor int64 `json:"factor"`
}

// EncodeCE serializes a counterexample of automaton a — the one encoder
// behind cache entries and cluster wire records.
func EncodeCE(a *ta.TA, ce *schema.Counterexample) *CEData {
	d := &CEData{
		Params: make(map[string]int64, len(a.Params)),
		InitK:  append([]int64(nil), ce.Run.Init.K...),
		InitV:  append([]int64(nil), ce.Run.Init.V...),
		Schema: append([]string(nil), ce.Schema...),
	}
	for _, p := range a.Params {
		d.Params[a.Table.Name(p)] = ce.Params[p]
	}
	for _, st := range ce.Run.Steps {
		d.Steps = append(d.Steps, CEStep{Rule: st.Rule, Factor: st.Factor})
	}
	return d
}

// Decode rebuilds the counterexample and re-certifies it by replay on the
// concrete counter system (schema.Certify) before trusting it: neither a
// cache file, a worker's report nor a journal frame can carry a violation
// without proof. The caller must pass the one-round automaton and the query
// the data was produced for.
func (d *CEData) Decode(a *ta.TA, q *spec.Query) (*schema.Counterexample, error) {
	params := make(map[expr.Sym]int64, len(d.Params))
	for name, v := range d.Params {
		s := a.Table.Lookup(name)
		if s == expr.NoSym {
			return nil, fmt.Errorf("counterexample parameter %q unknown to automaton %s", name, a.Name)
		}
		params[s] = v
	}
	run := counter.Run{
		Init: counter.Config{
			K: append([]int64(nil), d.InitK...),
			V: append([]int64(nil), d.InitV...),
		},
	}
	for _, st := range d.Steps {
		run.Steps = append(run.Steps, counter.Step{Rule: st.Rule, Factor: st.Factor})
	}
	sys, err := schema.Certify(a, q, params, run)
	if err != nil {
		return nil, fmt.Errorf("counterexample failed re-certification: %w", err)
	}
	return &schema.Counterexample{
		Params: params,
		Run:    run,
		System: sys,
		Schema: append([]string(nil), d.Schema...),
	}, nil
}

// FromResult converts a finished check into a cacheable entry. Budget
// outcomes are rejected: a timeout or interrupt cuts the search at a
// wall-clock-dependent point, so nothing about them is stable enough to
// reuse. The automaton must be the engine's one-round form.
func FromResult(a *ta.TA, key string, res schema.Result) (*Entry, error) {
	if res.Outcome == spec.Budget {
		return nil, fmt.Errorf("vcache: refusing to cache a budget outcome for %s", res.Query)
	}
	e := &Entry{
		Key:     key,
		Engine:  EngineVersion,
		Query:   res.Query,
		Mode:    res.Mode.String(),
		Outcome: res.Outcome.Label(),
		Schemas: res.Schemas,
		AvgLen:  res.AvgLen,
		Solver:  res.Solver,
	}
	if res.Outcome == spec.Violated {
		if res.CE == nil {
			return nil, fmt.Errorf("vcache: violated result for %s has no counterexample", res.Query)
		}
		e.CE = EncodeCE(a, res.CE)
	}
	return e, nil
}

// ToResult rebuilds a schema.Result from the entry, re-certifying any
// counterexample (CEData.Decode). The caller must pass the same one-round
// automaton and query the key was derived from; Elapsed is left zero for the
// caller to stamp.
func (e *Entry) ToResult(a *ta.TA, q *spec.Query) (schema.Result, error) {
	outcome, err := ParseOutcome(e.Outcome)
	if err != nil {
		return schema.Result{}, err
	}
	mode, err := schema.ParseMode(e.Mode)
	if err != nil {
		return schema.Result{}, fmt.Errorf("vcache: %w", err)
	}
	res := schema.Result{
		Query:   e.Query,
		Mode:    mode,
		Outcome: outcome,
		Schemas: e.Schemas,
		AvgLen:  e.AvgLen,
		Solver:  e.Solver,
	}
	if outcome == spec.Violated {
		if e.CE == nil {
			return schema.Result{}, fmt.Errorf("vcache: violated entry for %s has no counterexample", e.Query)
		}
		if res.CE, err = e.CE.Decode(a, q); err != nil {
			return schema.Result{}, fmt.Errorf("vcache: cached %s: %w", e.Query, err)
		}
	}
	return res, nil
}

// Encode frames the entry for disk: magic, then the JSON payload as one
// CRC32C-framed WAL record.
func (e *Entry) Encode() ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	if len(payload) > wal.MaxRecord {
		// ParseRecord classifies a longer frame as corruption.
		return nil, fmt.Errorf("vcache: entry payload too large (%d bytes)", len(payload))
	}
	return append([]byte(entryMagic), wal.FrameRecord(payload)...), nil
}

// DecodeEntry parses a framed entry, classifying any structural damage —
// short header, bad magic, torn payload, checksum mismatch, trailing bytes,
// oversize length, undecodable JSON — as ErrCorrupt.
func DecodeEntry(data []byte) (*Entry, error) {
	frame, ok := bytes.CutPrefix(data, []byte(entryMagic))
	if !ok {
		return nil, fmt.Errorf("%w: short frame or bad magic", ErrCorrupt)
	}
	payload, err := wal.ParseRecord(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &e, nil
}
