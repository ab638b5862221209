package vcache

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/models"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_hashes.txt from the bundled models")

const goldenPath = "testdata/golden_hashes.txt"

// computeSpecHashes hashes every bundled model, keyed by its spec file.
func computeSpecHashes() map[string]string {
	out := make(map[string]string, len(models.Bundled))
	for _, m := range models.Bundled {
		out[m.File] = TAHash(m.TA())
	}
	return out
}

func renderGolden(hashes map[string]string) string {
	files := make([]string, 0, len(hashes))
	for file := range hashes {
		files = append(files, file)
	}
	sort.Strings(files)
	var b strings.Builder
	fmt.Fprintf(&b, "engine %s\n", EngineVersion)
	for _, file := range files {
		fmt.Fprintf(&b, "%s %s\n", file, hashes[file])
	}
	return b.String()
}

// TestGoldenSpecHashes pins the canonical hash of every bundled spec. The
// contract: the canonical serialization (hence every cache key) may only
// change together with an EngineVersion bump. Drift at the same engine
// version fails the test — it would silently invalidate or, worse, alias
// cache entries. After an intentional serialization change, bump
// EngineVersion and regenerate with:
//
//	go test ./internal/vcache -run TestGoldenSpecHashes -update-golden
func TestGoldenSpecHashes(t *testing.T) {
	hashes := computeSpecHashes()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(renderGolden(hashes)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten for engine %s", EngineVersion)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(hashes)+1 {
		t.Fatalf("golden file has %d lines, want %d", len(lines), len(hashes)+1)
	}
	var goldenEngine string
	if _, err := fmt.Sscanf(lines[0], "engine %s", &goldenEngine); err != nil {
		t.Fatalf("golden file header %q unparsable: %v", lines[0], err)
	}
	golden := make(map[string]string, len(hashes))
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("golden line %q unparsable", line)
		}
		golden[fields[0]] = fields[1]
	}
	if goldenEngine != EngineVersion {
		// The version was bumped but the golden file was not regenerated:
		// that is the legitimate moment for hashes to move, so require the
		// regeneration rather than comparing stale pins.
		t.Fatalf("golden file pins engine %s but EngineVersion is %s; regenerate with -update-golden",
			goldenEngine, EngineVersion)
	}
	for _, m := range models.Bundled {
		name, got := m.File, hashes[m.File]
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		if got != want {
			t.Errorf("%s: canonical hash drifted at engine version %s:\n  got  %s\n  want %s\n"+
				"a serialization change must come with an EngineVersion bump (then -update-golden)",
				name, EngineVersion, got, want)
		}
	}
}
