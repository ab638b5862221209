package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStderr runs f with os.Stderr redirected to a file and returns what
// it wrote (usage text goes there).
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	orig := os.Stderr
	os.Stderr = file
	f()
	os.Stderr = orig
	data, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunSubcommands smoke-tests the CLI plumbing end to end (output goes to
// stdout; the assertions are on the error results).
func TestRunSubcommands(t *testing.T) {
	dir := t.TempDir()
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	good := [][]string{
		{"help"},
		{"verify", "-model", "strb"},
		{"verify", "-model", "bv", "-prop", "BV-Just0", "-mode", "full", "-stats"},
		{"dot", "-model", "simplified"},
		{"export", "-model", "naive"},
		{"spec", "-model", "strb"},
		{"ce"},
		{"table2", "-skip-naive"},
	}
	for _, args := range good {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}

	bad := [][]string{
		nil,
		{"frobnicate"},
		{"verify", "-model", "nope"},
		{"verify", "-model", "bv", "-prop", "NoSuchProperty"},
		{"verify", "-model", "bv", "-mode", "warp"},
		{"verify", "-ta", filepath.Join(dir, "missing.ta"), "-spec", "x"},
		{"dot", "-model", "nope"},
		{"spec", "-model", "naive"}, // no bundled spec for the naive model
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}

	// The retired benchmark writers are ordinary unknown subcommands now,
	// and the usage text they trigger no longer offers them.
	for _, name := range []string{"bench", "loadgen", "clusterbench"} {
		var err error
		usageText := captureStderr(t, func() { err = run([]string{name}) })
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("run(%s): err = %v, want the unknown-subcommand error", name, err)
		}
		if !strings.Contains(usageText, "subcommands:") {
			t.Fatalf("run(%s) printed no usage:\n%s", name, usageText)
		}
		for _, line := range strings.Split(usageText, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				t.Errorf("usage still lists %q: %s", name, line)
			}
		}
	}
}

// TestRunFileWorkflow exercises export -> verify -ta/-spec on temp files.
func TestRunFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	taPath := filepath.Join(dir, "strb.ta")
	specPath := filepath.Join(dir, "strb.ltl")

	// Redirect stdout into the .ta file for the export call.
	orig := os.Stdout
	f, err := os.Create(taPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	exportErr := run([]string{"export", "-model", "strb"})
	os.Stdout = orig
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if exportErr != nil {
		t.Fatal(exportErr)
	}

	if err := os.WriteFile(specPath, []byte(
		"unforgeability: [](locV1 == 0) -> [](locAC == 0);\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = orig }()
	if err := run([]string{"verify", "-ta", taPath, "-spec", specPath}); err != nil {
		t.Errorf("file workflow: %v", err)
	}
	// -ta without -spec must be rejected.
	if err := run([]string{"verify", "-ta", taPath}); err == nil {
		t.Error("-ta without -spec should error")
	}
}
