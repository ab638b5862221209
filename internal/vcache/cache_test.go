package vcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/spec"
)

func testKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func testEntry(key string) *Entry {
	return &Entry{
		Key: key, Engine: EngineVersion, Query: "Inv1_0", Mode: "staged",
		Outcome: "holds", Schemas: 7, AvgLen: 12.5,
		Solver: smt.Stats{LPChecks: 3, Pivots: 11},
	}
}

func TestPutGetRoundTripDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(0)
	if err := c.Put(testEntry(key)); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory must serve the entry from disk.
	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("disk entry not found by fresh cache")
	}
	if got.Schemas != 7 || got.Outcome != "holds" || got.AvgLen != 12.5 || got.Solver.Pivots != 11 {
		t.Fatalf("round-trip mutated the entry: %+v", got)
	}
	if _, ok := c2.Get(testKey(1)); ok {
		t.Fatal("made-up key reported as hit")
	}
}

// Every single-byte truncation and every single-byte flip of an entry file
// must be detected and downgraded to a miss — the WAL plane's byte-flip
// sweep, applied to the cache frame.
func TestCorruptEntrySweepIsMissNeverWrongVerdict(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := c.Put(testEntry(key)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".vce")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func() *Cache {
		nc, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return nc
	}
	// Truncations (including the empty file).
	for cut := 0; cut < len(pristine); cut += 7 {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := reopen().Get(key); ok {
			t.Fatalf("truncation to %d bytes served as a hit", cut)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("truncated entry (%d bytes) not deleted on detection", cut)
		}
	}
	// Bit flips across the whole frame (header and payload).
	for pos := 0; pos < len(pristine); pos += 3 {
		mut := append([]byte(nil), pristine...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := reopen().Get(key)
		if ok {
			// A flip that still validates must decode to the identical entry
			// (e.g. a flip inside a JSON value would fail the CRC; nothing
			// that alters the payload may survive).
			if e.Schemas != 7 || e.Outcome != "holds" {
				t.Fatalf("flip at byte %d served a DIFFERENT verdict: %+v", pos, e)
			}
			t.Fatalf("flip at byte %d unexpectedly passed CRC validation", pos)
		}
	}
}

func TestCorruptEntryIsLoggedAndRecounted(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	c, err := Open(Options{Dir: dir, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := c.Put(testEntry(key)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".vce")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	before := mCorrupt.Load()
	c2, _ := Open(Options{Dir: dir, Logf: logf})
	if _, ok := c2.Get(key); ok {
		t.Fatal("torn entry served as hit")
	}
	if mCorrupt.Load() != before+1 {
		t.Fatalf("corrupt counter not incremented (%d -> %d)", before, mCorrupt.Load())
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "corrupt entry") && strings.Contains(l, "miss") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not logged; log lines: %v", logged)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := Open(Options{MemEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Put(testEntry(testKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("LRU holds %d entries, want 3", c.Len())
	}
	// Memory-only cache: evicted entries are gone, recent ones present.
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.Get(testKey(4)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touch the now-oldest surviving entry, then insert: the untouched one
	// must be the victim.
	if _, ok := c.Get(testKey(2)); !ok {
		t.Fatal("entry 2 missing")
	}
	if err := c.Put(testEntry(testKey(5))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey(3)); ok {
		t.Fatal("LRU order ignored: untouched entry 3 survived over touched entry 2")
	}
	if _, ok := c.Get(testKey(2)); !ok {
		t.Fatal("recently-touched entry 2 evicted")
	}
}

// A full round trip through the engine: verify, cache, rebuild, compare —
// including a Violated result whose counterexample must re-certify by
// replay, and a tampered counterexample that must be rejected.
func TestResultRoundTripWithCounterexample(t *testing.T) {
	a := models.SimplifiedConsensus()
	q, err := models.Inv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.Staged})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(&q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != spec.Violated || res.CE == nil {
		t.Fatalf("expected a violated result with CE, got %v", res.Outcome)
	}
	key := Key(eng.TA(), &q, ConfigOf(eng.Opts()), EngineVersion)
	ent, err := FromResult(eng.TA(), key, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.ToResult(eng.TA(), &q)
	if err != nil {
		t.Fatalf("rebuild failed: %v", err)
	}
	if back.Outcome != res.Outcome || back.Schemas != res.Schemas ||
		back.AvgLen != res.AvgLen || back.Solver != res.Solver {
		t.Fatalf("deterministic fields drifted:\n got %+v\nwant %+v", back, res)
	}
	if back.CE.Format() != res.CE.Format() {
		t.Fatalf("counterexample drifted:\n got %s\nwant %s", back.CE.Format(), res.CE.Format())
	}

	// Tamper with the run: the replay certification must reject it.
	bad := *dec
	badCE := *dec.CE
	badCE.Steps = append([]CEStep(nil), dec.CE.Steps...)
	if len(badCE.Steps) == 0 {
		t.Fatal("counterexample has no steps to tamper with")
	}
	badCE.Steps[0].Factor += 1000
	bad.CE = &badCE
	if _, err := bad.ToResult(eng.TA(), &q); err == nil {
		t.Fatal("tampered counterexample passed re-certification")
	}
}

// Budget outcomes must never enter the cache.
func TestBudgetNeverCached(t *testing.T) {
	a := models.SimplifiedConsensus()
	eng, err := schema.New(a, schema.Options{Mode: schema.Staged})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(eng.TA(), testKey(9), schema.Result{Query: "x", Mode: schema.Staged, Outcome: spec.Budget}); err == nil {
		t.Fatal("FromResult accepted a budget outcome")
	}
}
