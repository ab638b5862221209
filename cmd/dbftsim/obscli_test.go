package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObsFailurePaths asserts that every campaign mode validates its
// observability flags before any seed runs: a bad -trace or -report
// destination fails with the one-line diagnostic naming that output. (The
// flags themselves, -pprof included, are tested in internal/obs.)
func TestObsFailurePaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")

	bad := []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "-chaos-seeds", "5", "-report", missing}, "obs: report: "},
		{[]string{"-chaos", "-chaos-seeds", "5", "-trace", missing}, "obs: trace: "},
		{[]string{"-torture", "-torture-seeds", "5", "-report", missing}, "obs: report: "},
		{[]string{"-torture", "-torture-seeds", "5", "-trace", missing}, "obs: trace: "},
	}
	for _, tc := range bad {
		err := run(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v): err = %v, want one line starting %q", tc.args, err, tc.want)
		}
	}
}

// TestChaosInterruptFlushesPartialReport interrupts a long campaign with a
// real SIGINT and asserts the wind-down contract: non-zero exit with a
// one-line diagnostic, and a flushed, valid partial report (never a
// zero-byte or skeleton JSON) with the interrupted flag set.
//
// Note: exactly one SIGINT may be sent per test binary — every run() call
// registers a persistent handler that force-exits on its second signal.
func TestChaosInterruptFlushesPartialReport(t *testing.T) {
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	report := filepath.Join(t.TempDir(), "chaos.json")
	go func() {
		time.Sleep(300 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGINT)
	}()
	runErr := run([]string{"-chaos", "-chaos-seeds", "50000", "-seed", "1",
		"-n", "4", "-t", "1", "-j", "2", "-report", report})
	if runErr == nil {
		t.Fatal("expected non-zero exit after an interrupt")
	}
	if strings.Contains(runErr.Error(), "\n") {
		t.Errorf("diagnostic spans multiple lines: %q", runErr)
	}
	if !strings.Contains(runErr.Error(), "interrupted") {
		t.Errorf("diagnostic does not mention the interrupt: %q", runErr)
	}

	fi, err := os.Stat(report)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("zero-byte report after interrupt")
	}
	rep, err := obs.ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Error("report is still the startup skeleton")
	}
	if err := rep.Validate(); err != nil {
		t.Errorf("partial report does not validate: %v", err)
	}
	if !rep.Observational.Interrupted {
		t.Error("interrupted flag unset")
	}
	cm := rep.Deterministic.Campaign
	if cm == nil {
		t.Fatal("no campaign aggregate in the report")
	}
	if cm.Runs <= 0 || cm.Runs >= 50000 {
		t.Errorf("campaign runs = %d, want a completed prefix of the 50000 seeds", cm.Runs)
	}
}
