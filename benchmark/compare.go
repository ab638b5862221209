package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != "holistic-benchmark/v1" {
		return nil, fmt.Errorf("%s: not a benchmark artifact (schema %q)", path, a.Schema)
	}
	return &a, nil
}

// compareRow is one (metric, workload) pairing.
type compareRow struct {
	Metric, Unit  string
	Old, New      float64
	Ratio         float64 // New ÷ Old; the base is Old
	Spread, Bound float64
	Verdict       string
}

// judge applies one metric's bound. A change counts as a regression when the
// new median is worse than the old by more than the bound. When the repeats'
// own spread is wider than the bound the row is unresolved rather than
// unchanged — unless every new repeat reads better than every old one.
// setup_s has as few as three samples a run, too few for a spread, and is
// judged on its medians alone (the driver exempts its spread as well).
func judge(m metricSpec, oldS, newS []float64) compareRow {
	row := compareRow{Metric: m.Name, Unit: m.Unit, Old: median(oldS), New: median(newS), Bound: m.Bound}
	row.Ratio = ratio(row.New, row.Old)
	if m.Name != "setup_s" {
		row.Spread = max(spread(oldS), spread(newS))
	}
	worse := row.Ratio - 1
	if m.Better == "higher" {
		worse = 1 - row.Ratio
	}
	allBetter := len(oldS) > 1 && len(newS) > 1 // one value a side says nothing about every repeat
	for _, n := range newS {
		for _, o := range oldS {
			if (m.Better == "higher" && n <= o) || (m.Better != "higher" && n >= o) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		row.Verdict = "improved"
	case row.Spread > m.Bound:
		row.Verdict = "unresolved"
	case worse > m.Bound:
		row.Verdict = "regressed"
	case worse < -m.Bound:
		row.Verdict = "improved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// compareArtifacts prints one row per (end-to-end metric, workload) and one
// per exactly-repeating count, and fails on any regressed, unresolved or
// mismatched row.
func compareArtifacts(spec *benchSpec, oldPath, newPath string) error {
	oldA, err := readArtifact(oldPath)
	if err != nil {
		return err
	}
	newA, err := readArtifact(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  engine %s  commit %s  seed %d  scale %d  %d CPU  %s\n", oldPath, oldA.Header.EngineVersion,
		oldA.Header.GitCommit, oldA.Header.Seed, oldA.Header.Scale, oldA.Header.NumCPU, oldA.Header.GoVersion)
	fmt.Printf("new: %s  engine %s  commit %s  seed %d  scale %d  %d CPU  %s\n", newPath, newA.Header.EngineVersion,
		newA.Header.GitCommit, newA.Header.Seed, newA.Header.Scale, newA.Header.NumCPU, newA.Header.GoVersion)
	if oldA.Header.Scale != newA.Header.Scale {
		return fmt.Errorf("artifacts were taken at different scales (%d and %d)", oldA.Header.Scale, newA.Header.Scale)
	}
	sameSeed := oldA.Header.Seed == newA.Header.Seed
	byName := map[string]workloadReport{}
	for _, w := range oldA.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	fmt.Printf("%-14s %-14s %12s %12s %8s %-6s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "new/old", "unit", "spread", "bound", "verdict")
	for _, nw := range newA.Workloads {
		ow, ok := byName[nw.Name]
		if !ok || ow.Untraced == nil || nw.Untraced == nil {
			fmt.Printf("%-14s only in one artifact\n", nw.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			row := judge(m, ow.Untraced.Samples[m.Name], nw.Untraced.Samples[m.Name])
			fmt.Printf("%-14s %-14s %12s %12s %8.3f %-6s %8.3f %8.3f  %s\n", nw.Name, row.Metric,
				fmtFloat(row.Old), fmtFloat(row.New), row.Ratio, row.Unit, row.Spread, row.Bound, row.Verdict)
			if row.Verdict == "regressed" || row.Verdict == "unresolved" {
				bad++
			}
		}
		if nw.Untraced.Failed > 0 || ow.Untraced.Failed > 0 {
			fmt.Printf("%-14s failed operations: old %d, new %d (bound: none may fail)\n", nw.Name, ow.Untraced.Failed, nw.Untraced.Failed)
			bad++
		}
		names := make([]string, 0, len(nw.Untraced.Exact))
		for name := range nw.Untraced.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			o, n := ow.Untraced.Exact[name], nw.Untraced.Exact[name]
			verdict := "equal"
			switch {
			case !sameSeed:
				verdict = "skipped (seeds differ)"
			case o != n:
				verdict = "mismatch"
				bad++
			}
			fmt.Printf("%-14s %-14s %12d %12d %8s %-6s %8s %8s  %s\n", nw.Name, name, o, n, "", "count", "", "exact", verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or mismatched", bad)
	}
	return nil
}
