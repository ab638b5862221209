package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/vcache"
	"repro/specs"
)

// capture runs f with *stream (os.Stdout or os.Stderr) redirected to a file
// and returns what it wrote.
func capture(t *testing.T, stream **os.File, f func()) string {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	orig := *stream
	*stream = file
	f()
	*stream = orig
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
	garbage := filepath.Join(dir, "garbage.ltl")
	if err := os.WriteFile(garbage, []byte("p: [](;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
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
		{"verify", "-model", "strb", "-spec", filepath.Join("..", "..", "specs", "strb.ltl")},
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
		{"verify", "-model", "strb", "-spec", garbage},
		{"verify", "-model", "strb", "-spec", filepath.Join(dir, "missing.ltl")},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}

	// The retired benchmark writers and the spec subcommand (folded into
	// verify -spec) are ordinary unknown subcommands now, and the usage text
	// they trigger no longer offers them.
	for _, name := range []string{"bench", "loadgen", "clusterbench", "spec"} {
		var err error
		usageText := capture(t, &os.Stderr, func() { err = run([]string{name}) })
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
	// With a bundled model, -spec replaces the model's properties: the
	// report holds exactly the file's one property, labeled with the model.
	report := filepath.Join(dir, "report.json")
	if err := run([]string{"verify", "-model", "strb", "-spec", specPath, "-report", report}); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ReadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if q := rep.Deterministic.Queries; len(q) != 1 || q[0].Model != "strb" || q[0].Query != "unforgeability" {
		t.Errorf("verify -model strb -spec reported %+v, want the one row strb/unforgeability", q)
	}
}

// TestVerifySpecMatchesSpecReference pins `verify -model M -spec F` to the
// subcommand it replaced, kept here as specReference: for every property of
// the shipped spec files (all but naive.ltl, whose staged checks do not
// finish), the same outcome, schema count, average length and solver
// effort.
func TestVerifySpecMatchesSpecReference(t *testing.T) {
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	for _, tc := range []struct{ model, file string }{
		{"bv", "bvbroadcast.ltl"},
		{"simplified", "simplified.ltl"},
		{"strb", "strb.ltl"},
		{"bosco", "bosco.ltl"},
		{"sba", "sba.ltl"},
	} {
		src, err := specs.FS.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		want := specReference(t, tc.model, string(src))
		report := filepath.Join(t.TempDir(), "report.json")
		if err := run([]string{"verify", "-model", tc.model, "-spec", filepath.Join("..", "..", "specs", tc.file),
			"-j", "1", "-report", report}); err != nil {
			t.Fatal(err)
		}
		rep, err := obs.ReadReport(report)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Deterministic.Queries, want) {
			t.Errorf("%s: verify -spec rows\n%+v\nwant the reference rows\n%+v", tc.model, rep.Deterministic.Queries, want)
		}
	}
}

// specReference is the retired spec subcommand: compile the bundled spec
// text against the model's automaton and check each query in staged mode.
func specReference(t *testing.T, model, src string) []obs.QueryMetrics {
	t.Helper()
	a, _, err := service.BuiltinModel(model)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := ltl.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := ltl.CompileFile(pf, a)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := schema.New(a, schema.Options{Mode: schema.Staged, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows []obs.QueryMetrics
	for i := range queries {
		res, err := engine.Check(&queries[i])
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res.Row(model))
	}
	return rows
}

// TestSpecsPrintsGoldenHashes: `holistic specs` lists every bundled model
// under the hash its spec file has in the vcache golden file, so -model M
// and -ta specs/<file> share one cache identity.
func TestSpecsPrintsGoldenHashes(t *testing.T) {
	var err error
	out := capture(t, &os.Stdout, func() { err = run([]string{"specs"}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if want := "engine " + vcache.EngineVersion; lines[0] != want {
		t.Fatalf("first line %q, want %q", lines[0], want)
	}
	got := map[string]string{}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		got[f[1]] = f[len(f)-1]
	}
	golden := goldenHashes(t)
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("holistic specs prints\n%v\nthe golden file pins\n%v", got, golden)
	}
}

// goldenHashes reads internal/vcache/testdata/golden_hashes.txt as a map
// from spec file to canonical hash.
func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "vcache", "testdata", "golden_hashes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		f := strings.Fields(line)
		out[f[0]] = f[1]
	}
	return out
}
