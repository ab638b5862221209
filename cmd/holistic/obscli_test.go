package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObsFailurePaths asserts that every subcommand taking the
// observability flags validates them before any verification work: a bad
// -trace or -report destination fails with the one-line diagnostic naming
// that output. (The flags themselves, -pprof included, are tested in
// internal/obs.)
func TestObsFailurePaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")

	bad := []struct {
		args []string
		want string
	}{
		{[]string{"table2", "-skip-naive", "-report", missing}, "obs: report: "},
		{[]string{"table2", "-skip-naive", "-trace", missing}, "obs: trace: "},
		{[]string{"verify", "-model", "strb", "-report", missing}, "obs: report: "},
		{[]string{"verify", "-model", "strb", "-remote", "http://127.0.0.1:1", "-trace", missing}, "obs: trace: "},
		{[]string{"pipeline", "-trace", missing}, "obs: trace: "},
		{[]string{"cluster", "-model", "strb", "-addr", "127.0.0.1:0", "-report", missing}, "obs: report: "},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-trace", missing}, "obs: trace: "},
	}
	for _, tc := range bad {
		err := run(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v): err = %v, want one line starting %q", tc.args, err, tc.want)
		}
	}
}

// TestTable2ReportContents runs the fast Table 2 block with -report and
// asserts the acceptance shape: one deterministic row per query with schema
// counts, and one observational timing row per query with the per-phase
// (encode/solve/fold) breakdown.
func TestTable2ReportContents(t *testing.T) {
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	path := filepath.Join(t.TempDir(), "table2.json")
	if err := run([]string{"table2", "-skip-naive", "-j", "2", "-report", path}); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Deterministic.Queries) == 0 {
		t.Fatal("no query rows in the report")
	}
	if len(rep.Observational.Timings) != len(rep.Deterministic.Queries) {
		t.Fatalf("%d timing rows for %d query rows",
			len(rep.Observational.Timings), len(rep.Deterministic.Queries))
	}
	for _, q := range rep.Deterministic.Queries {
		if q.Outcome != "budget" && q.Schemas == 0 {
			t.Errorf("%s/%s: no schema count", q.Model, q.Query)
		}
	}
	solved := false
	for _, tm := range rep.Observational.Timings {
		if tm.ElapsedNS <= 0 {
			t.Errorf("%s/%s: no elapsed time", tm.Model, tm.Query)
		}
		if tm.SolveNS > 0 {
			solved = true
		}
	}
	if !solved {
		t.Error("no timing row has a solve phase > 0")
	}
	if rep.Observational.Workers != 2 {
		t.Errorf("workers = %d, want 2", rep.Observational.Workers)
	}
}
