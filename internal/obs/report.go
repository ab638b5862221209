package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the `-report out.json` payload: the full metric snapshot of one
// CLI run. The two top-level sections enforce the package determinism rule
// structurally — everything under Deterministic must be byte-identical
// across worker counts (scripts/verify.sh asserts this at -j 1 vs -j 8),
// everything under Observational may vary run to run and must never be
// compared for equality.
type Report struct {
	// Tool identifies the producer, e.g. "holistic table2".
	Tool string `json:"tool"`
	// Partial marks a skeleton written before the run finished; a final
	// report always clears it. A consumer finding Partial set is looking at
	// the leftovers of a crash (never a zero-byte or truncated file: the
	// skeleton is written whole at startup, the final report atomically).
	Partial bool `json:"partial,omitempty"`

	Deterministic Deterministic `json:"deterministic"`
	Observational Observational `json:"observational"`
}

// Deterministic holds the verdict-relevant metrics, folded from per-index
// records (see internal/schema/parallel.go) rather than global counters.
type Deterministic struct {
	// Queries reports one row per property check.
	Queries []QueryMetrics `json:"queries,omitempty"`
	// Campaign reports a chaos/torture campaign aggregate.
	Campaign *CampaignMetrics `json:"campaign,omitempty"`
}

// QueryMetrics is the deterministic slice of one property verdict: the
// Table 2 columns plus the folded solver effort. Rows whose Outcome is
// "budget" zero the volatile fields (schema count, solver effort): a
// wall-clock timeout or an interrupt cuts the enumeration at a
// nondeterministic point, so only the outcome itself is stable.
type QueryMetrics struct {
	Model   string        `json:"model"`
	Query   string        `json:"query"`
	Mode    string        `json:"mode"`
	Outcome string        `json:"outcome"`
	Schemas int           `json:"schemas"`
	AvgLen  float64       `json:"avg_len"`
	Solver  SolverMetrics `json:"solver"`
}

// SolverMetrics is the SMT effort behind one verdict or one schema: the one
// definition every layer shares (smt.Stats is an alias), so a counter added
// here reaches cache entries, cluster wire records, service responses and
// reports without a copy site to update.
type SolverMetrics struct {
	LPChecks  int `json:"lp_checks"`   // simplex runs
	Pivots    int `json:"pivots"`      // total simplex pivots
	Rebuilds  int `json:"rebuilds"`    // full phase-one solves (vs warm-started dual restores)
	BBNodes   int `json:"bb_nodes"`    // branch-and-bound nodes
	CaseSplit int `json:"case_splits"` // lazy disjunction branches explored
}

// Add accumulates another solver's effort into st. The parallel schema
// enumeration keeps per-schema stats and merges them at join, so the
// aggregate is independent of worker scheduling.
func (st *SolverMetrics) Add(o SolverMetrics) {
	st.LPChecks += o.LPChecks
	st.Pivots += o.Pivots
	st.Rebuilds += o.Rebuilds
	st.BBNodes += o.BBNodes
	st.CaseSplit += o.CaseSplit
}

// Diff returns st minus o, field by field. The incremental schema walker
// snapshots the stats around each charged operation and records the delta,
// so per-schema effort attribution stays exact while one solver serves many
// schemas.
func (st SolverMetrics) Diff(o SolverMetrics) SolverMetrics {
	return SolverMetrics{
		LPChecks:  st.LPChecks - o.LPChecks,
		Pivots:    st.Pivots - o.Pivots,
		Rebuilds:  st.Rebuilds - o.Rebuilds,
		BBNodes:   st.BBNodes - o.BBNodes,
		CaseSplit: st.CaseSplit - o.CaseSplit,
	}
}

// CampaignMetrics is the deterministic aggregate of a seeded campaign: the
// contiguous-prefix fold makes these identical at any worker count for a
// completed campaign.
type CampaignMetrics struct {
	Kind       string         `json:"kind"` // "chaos" or "torture"
	Runs       int            `json:"runs"`
	Decided    int            `json:"decided"`
	Violations int            `json:"violations"`
	Events     map[string]int `json:"events,omitempty"`
}

// Observational holds everything wall-clock- or scheduling-dependent.
type Observational struct {
	GeneratedAt string `json:"generated_at,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	// Interrupted is set when a Stop hook cut the run short; the
	// deterministic section then covers only the completed prefix.
	Interrupted bool `json:"interrupted,omitempty"`
	// Timings decomposes each query's Elapsed into the encode/solve/fold
	// phases (summed across workers, so in-flight work discarded after the
	// first counterexample still counts — by design).
	Timings []QueryTimings `json:"timings,omitempty"`
	// Registry is the raw instrument snapshot (counters, gauges,
	// histograms) of the whole process.
	Registry Snapshot `json:"registry"`
}

// QueryTimings is the per-phase wall-clock breakdown of one check: how a
// Table 2 row's time splits across building LIA encodings (encode),
// discharging them (solve) and joining per-index records (fold).
type QueryTimings struct {
	Model     string `json:"model"`
	Query     string `json:"query"`
	ElapsedNS int64  `json:"elapsed_ns"`
	EncodeNS  int64  `json:"encode_ns"`
	SolveNS   int64  `json:"solve_ns"`
	FoldNS    int64  `json:"fold_ns"`
}

// knownOutcomes are the spec.Outcome strings a report may carry.
var knownOutcomes = map[string]bool{"holds": true, "violated": true, "budget": true}

// Validate checks the report against the documented schema: a tool name, at
// least one deterministic payload, known outcomes, and budget rows with
// their volatile fields zeroed. scripts/verify.sh runs this (via
// cmd/obscheck) on every report the smoke legs produce.
func (r *Report) Validate() error {
	if r.Tool == "" {
		return fmt.Errorf("obs: report has no tool name")
	}
	if r.Partial {
		return fmt.Errorf("obs: report is a partial skeleton (the producing run did not finish)")
	}
	if len(r.Deterministic.Queries) == 0 && r.Deterministic.Campaign == nil {
		return fmt.Errorf("obs: report has no deterministic payload")
	}
	for i, q := range r.Deterministic.Queries {
		if q.Model == "" || q.Query == "" {
			return fmt.Errorf("obs: query row %d has an empty model/query name", i)
		}
		if !knownOutcomes[q.Outcome] {
			return fmt.Errorf("obs: query row %s/%s has unknown outcome %q", q.Model, q.Query, q.Outcome)
		}
		if q.Outcome == "budget" && (q.Schemas != 0 || q.Solver != (SolverMetrics{})) {
			return fmt.Errorf("obs: budget row %s/%s carries volatile fields in the deterministic section", q.Model, q.Query)
		}
		if q.Schemas < 0 || q.AvgLen < 0 {
			return fmt.Errorf("obs: query row %s/%s has negative metrics", q.Model, q.Query)
		}
	}
	if c := r.Deterministic.Campaign; c != nil {
		if c.Kind != "chaos" && c.Kind != "torture" {
			return fmt.Errorf("obs: campaign kind %q unknown", c.Kind)
		}
		if c.Runs < 0 || c.Decided > c.Runs {
			return fmt.Errorf("obs: campaign counts inconsistent (%d decided of %d runs)", c.Decided, c.Runs)
		}
	}
	return nil
}

// DeterministicJSON marshals only the deterministic section, for the
// byte-identity comparison across worker counts.
func (r *Report) DeterministicJSON() ([]byte, error) {
	return json.MarshalIndent(r.Deterministic, "", "  ")
}

// ReadReport loads and decodes a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &r, nil
}

// writeReportFile serializes the report and writes it in one shot (marshal
// first, then write), so an encoding failure never truncates an existing
// file and the file on disk is always complete JSON.
func writeReportFile(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
