package vcache

import (
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
)

func simplifiedEngine(t *testing.T) (*schema.Engine, []spec.Query) {
	t.Helper()
	a := models.SimplifiedConsensus()
	qs, err := models.Named("simplified").Queries(a)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.Staged})
	if err != nil {
		t.Fatal(err)
	}
	return eng, qs
}

// Keys must be stable across independent constructions of the same model
// (fresh symbol tables, fresh builders): the whole point of the canonical
// serialization.
func TestKeyStableAcrossConstructions(t *testing.T) {
	e1, q1 := simplifiedEngine(t)
	e2, q2 := simplifiedEngine(t)
	for i := range q1 {
		k1 := Key(e1.TA(), &q1[i], ConfigOf(e1.Opts()), EngineVersion)
		k2 := Key(e2.TA(), &q2[i], ConfigOf(e2.Opts()), EngineVersion)
		if k1 != k2 {
			t.Errorf("%s: key differs across constructions:\n%s\n%s", q1[i].Name, k1, k2)
		}
		if len(k1) != 64 || strings.Trim(k1, "0123456789abcdef") != "" {
			t.Errorf("%s: key is not lowercase hex sha256: %q", q1[i].Name, k1)
		}
	}
}

// Distinct queries, modes and engine versions must produce distinct keys.
func TestKeyDiscriminates(t *testing.T) {
	eng, qs := simplifiedEngine(t)
	cfg := ConfigOf(eng.Opts())
	seen := map[string]string{}
	for i := range qs {
		k := Key(eng.TA(), &qs[i], cfg, EngineVersion)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, qs[i].Name)
		}
		seen[k] = qs[i].Name
	}
	q := &qs[0]
	base := Key(eng.TA(), q, cfg, EngineVersion)
	fullCfg := cfg
	fullCfg.Mode = schema.FullEnumeration.String()
	if Key(eng.TA(), q, fullCfg, EngineVersion) == base {
		t.Error("mode change did not change the key")
	}
	if Key(eng.TA(), q, cfg, EngineVersion+"-next") == base {
		t.Error("engine version bump did not change the key")
	}
	bumped := cfg
	bumped.MaxSchemas++
	if Key(eng.TA(), q, bumped, EngineVersion) == base {
		t.Error("MaxSchemas change did not change the key")
	}
}

// An engine-version bump must invalidate every cached entry: the version is
// hashed into the key, so entries stored under the old version are simply
// unreachable (and a hand-copied file fails the stored-version check).
func TestVersionBumpInvalidatesEntries(t *testing.T) {
	eng, qs := simplifiedEngine(t)
	cfg := ConfigOf(eng.Opts())
	q := &qs[0]

	c, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	oldKey := Key(eng.TA(), q, cfg, "0.9.0")
	newKey := Key(eng.TA(), q, cfg, EngineVersion)
	if oldKey == newKey {
		t.Fatal("version did not affect the key")
	}
	if err := c.Put(&Entry{Key: oldKey, Engine: "0.9.0", Query: q.Name, Mode: "staged", Outcome: "holds"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(newKey); ok {
		t.Fatal("entry cached under the old engine version was served for the new version's key")
	}
}

// The canonical TA form must not depend on symbol intern order beyond the
// semantic slices: re-parsing a model through the textual format (different
// table, same structure) yields the same hash.
func TestTAHashMatchesModelsAndSpecs(t *testing.T) {
	for _, mk := range []func() *ta.TA{models.BVBroadcast, models.SimplifiedConsensus} {
		a := mk()
		h1 := TAHash(a)
		h2 := TAHash(mk())
		if h1 != h2 {
			t.Errorf("%s: hash differs across constructions", a.Name)
		}
	}
}

func TestOutcomeLabelRoundTrip(t *testing.T) {
	for _, o := range []spec.Outcome{spec.Holds, spec.Violated, spec.Budget} {
		got, err := ParseOutcome(o.Label())
		if err != nil || got != o {
			t.Errorf("%v: round-trip gave %v, %v", o, got, err)
		}
	}
	if lbl := spec.Budget.Label(); lbl != "budget" {
		t.Errorf("budget label = %q, want the obs report schema's short form", lbl)
	}
	if _, err := ParseOutcome("budget-exceeded"); err != nil {
		t.Errorf("long budget form rejected: %v", err)
	}
	if _, err := ParseOutcome("maybe"); err == nil {
		t.Error("unknown outcome accepted")
	}
}
