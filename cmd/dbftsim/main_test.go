package main

import (
	"os"
	"strings"
	"testing"
)

// captureStderr runs f with os.Stderr redirected to a file and returns what
// it wrote (the flag package prints its usage there).
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

func TestRunScenarios(t *testing.T) {
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	good := [][]string{
		{"-n", "4", "-t", "1", "-inputs", "0,1,1", "-byz", "silent", "-sched", "fair"},
		{"-n", "4", "-t", "1", "-inputs", "1,1,1", "-byz", "liar", "-sched", "random", "-seed", "7"},
		{"-n", "4", "-t", "1", "-inputs", "0,0,1", "-byz", "equivocator", "-sched", "fifo", "-print-trace", "3"},
		{"-lemma7", "-rounds", "6"},
		{"-chaos", "-chaos-seeds", "10", "-seed", "1", "-n", "4", "-t", "1"},
		{"-plan", `{"n":4,"t":1,"max_rounds":12,"max_steps":120000,"tick":25,` +
			`"inputs":[0,1,1],"byz":["silent"],"plan":{"seed":9,"drops":[{"prob":0.3,"budget":1}]}}`},
	}
	for _, args := range good {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}

	bad := [][]string{
		{"-inputs", "0,2,1"},                            // non-binary input
		{"-n", "4", "-inputs", "0,1", "-byz", "silent"}, // count mismatch
		{"-byz", "teleport"},                            // unknown strategy
		{"-sched", "sorcery"},                           // unknown scheduler
		{"-plan", "{not json"},                          // malformed scenario
		{"-plan", "@/nonexistent/scenario.json"},        // missing replay file
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}

	// The retired benchmark writer and the backend knob are ordinary unknown
	// flags now, the flag listing they trigger no longer offers them, and a
	// scenario file cannot select a backend either.
	for _, args := range [][]string{{"-bench-sim"}, {"-bench-sizes", "100"}, {"-backend", "flat"}} {
		var err error
		usageText := captureStderr(t, func() { err = run(args) })
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("run(%v): err = %v, want the unknown-flag error", args, err)
		}
		if !strings.Contains(usageText, "-chaos-seeds") {
			t.Fatalf("run(%v) printed no flag listing:\n%s", args, usageText)
		}
		if strings.Contains(usageText, "  -bench-") || strings.Contains(usageText, "  -backend") {
			t.Errorf("flag listing still offers a retired flag:\n%s", usageText)
		}
	}
	err = run([]string{"-plan", `{"n":4,"t":1,"inputs":[0,1,1],"byz":["silent"],"sim":{"backend":"flat"},"plan":{"seed":9}}`})
	if err == nil || !strings.Contains(err.Error(), `unknown field "backend"`) {
		t.Errorf(`scenario with a sim.backend key: err = %v, want the unknown-field error`, err)
	}
}
