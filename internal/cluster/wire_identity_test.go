package cluster

import (
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/vcache"
	"repro/internal/wal"
)

// The four serialized forms of one fixed Violated full-mode verdict (the toy
// automaton's bad_unreach). Entry, response and report were captured byte for
// byte at dd64711 — before the solver-effort struct, the counterexample
// codec, the CRC32C framing and the report row each collapsed to one
// definition; the journal's done record is written out by hand below.
const (
	goldenEntry = "VCE1\x91\x01\x00\x00\xfa\xff@1" +
		`{"key":"5e2ffc1abb1872acd0c8e3aba4f4dfd50b205e5ec354ff81651a87d5aa0c68ff","engine":"1.2.0","query":"bad_unreach","mode":"full","outcome":"violated","schemas":2,"avg_len":2,"solver":{"lp_checks":5,"pivots":7,"rebuilds":1,"bb_nodes":1,"case_splits":2},"ce":{"params":{"f":1,"n":4,"t":1},"init_k":[3,0,0,0],"init_v":[0],"steps":[{"rule":0,"factor":1},{"rule":1,"factor":1}],"schema":["x - 1 \u003e= 0"]}}`
	goldenResponse = `{"engine_version":"1.2.0","results":[{"model":"toy","query":"bad_unreach","mode":"full","outcome":"violated","schemas":2,"avg_len":2,"solver":{"lp_checks":5,"pivots":7,"rebuilds":1,"bb_nodes":1,"case_splits":2},"shared":true,"elapsed_ns":42,"ce_text":"parameters: n=4 t=1 f=1\ninit: A:3\n  r1 x1 (A -\u003e B): A:2 B:1 x=1\n  r2 x1 (B -\u003e BAD): A:2 BAD:1 x=1\n"}],"elapsed_ns":43}`
	goldenReport   = "{\n  \"queries\": [\n    {\n      \"model\": \"toy\",\n      \"query\": \"bad_unreach\",\n      \"mode\": \"full\",\n      \"outcome\": \"violated\",\n      \"schemas\": 2,\n      \"avg_len\": 2,\n      \"solver\": {\n        \"lp_checks\": 5,\n        \"pivots\": 7,\n        \"rebuilds\": 1,\n        \"bb_nodes\": 1,\n        \"case_splits\": 2\n      }\n    }\n  ]\n}"
)

// The done record of the toy job's one two-context shard, as worker w1
// reports it. legacyJournal is the JSON-array form the packed one replaced
// (the parent commit's golden): it names the values, goldenPacked lays them
// out per wire.go, every integer a uvarint.
//
//	02                    two records: contexts [] and [x >= 1]
//	05                    record 0 flags: status 1 (unsat) | 4 (stats follow)
//	01                    slots 1
//	02 05 01 00 01        lp_checks 2, pivots 5, rebuilds 1, bb_nodes 0, case_splits 1
//	06                    record 1 flags: status 2 (sat) | 4 (stats follow)
//	03                    slots 3
//	03 02 00 01 01        lp_checks 3, pivots 2, rebuilds 0, bb_nodes 1, case_splits 1
//	91 01                 counterexample length 145 = 0x11 + 1<<7, low seven bits
//	                      first with the continuation bit set
//	{"params": ... }      goldenCE, 145 bytes: 10 for {"params": + 19 for the
//	                      parameter object + 10 + 9 for init_k + 10 + 3 for
//	                      init_v + 9 + 45 for steps (two 21-byte objects, a
//	                      comma, brackets) + 10 + 19 for schema (\u003e is six
//	                      bytes) + 1 for the closing brace
//
// In the journal those bytes are the base64 string of the record's "records"
// field; the envelope's other fields are the legacy record's, unchanged.
const (
	goldenCE     = `{"params":{"f":1,"n":4,"t":1},"init_k":[3,0,0,0],"init_v":[0],"steps":[{"rule":0,"factor":1},{"rule":1,"factor":1}],"schema":["x - 1 \u003e= 0"]}`
	goldenPacked = "\x02" +
		"\x05\x01\x02\x05\x01\x00\x01" +
		"\x06\x03\x03\x02\x00\x01\x01" +
		"\x91\x01" + goldenCE
	legacyJournal = `{"t":"done","job":"j4d3e6a19f2df63ff","worker":"w1","hash":"sf08148df9e9f4a339997f50a","records":[{"done":true,"status":"unsat","slots":1,"stats":{"lp_checks":2,"pivots":5,"rebuilds":1,"bb_nodes":0,"case_splits":1}},{"done":true,"status":"sat","slots":3,"stats":{"lp_checks":3,"pivots":2,"rebuilds":0,"bb_nodes":1,"case_splits":1},"ce":{"params":{"f":1,"n":4,"t":1},"init_k":[3,0,0,0],"init_v":[0],"steps":[{"rule":0,"factor":1},{"rule":1,"factor":1}],"schema":["x - 1 \u003e= 0"]}}]}`
)

var goldenJournal = `{"t":"done","job":"j4d3e6a19f2df63ff","worker":"w1","hash":"sf08148df9e9f4a339997f50a","records":"` +
	base64.StdEncoding.EncodeToString([]byte(goldenPacked)) + `"}`

// TestWireIdentity marshals one verdict as a cache entry, a journaled shard
// report, a service response and a report's deterministic section, compares
// each against the bytes the parent commit wrote, then decodes the two
// counterexample-bearing forms back through the one codec and re-certifies.
func TestWireIdentity(t *testing.T) {
	p := JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}
	a, label, q, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.FullEnumeration})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Check(q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s drifted from the parent's bytes:\n got  %q\n want %q", what, got, want)
		}
	}
	certified := func(what string, ce *schema.Counterexample) {
		t.Helper()
		if ce == nil || ce.System == nil || ce.Format() != res.CE.Format() {
			t.Errorf("%s: decoded counterexample does not match the original: %+v", what, ce)
		}
	}

	key := vcache.Key(eng.TA(), q, vcache.ConfigOf(eng.Opts()), vcache.EngineVersion)
	ent, err := vcache.FromResult(eng.TA(), key, res)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	check("vcache entry", string(frame), goldenEntry)
	dec, err := vcache.DecodeEntry([]byte(goldenEntry))
	if err != nil {
		t.Fatalf("decoding the parent's entry: %v", err)
	}
	back, err := dec.ToResult(eng.TA(), q)
	if err != nil {
		t.Fatalf("rebuilding the parent's entry: %v", err)
	}
	if back.Outcome != spec.Violated || back.Solver != res.Solver {
		t.Errorf("entry round trip: %+v, want %+v", back, res)
	}
	certified("entry", back.CE)

	plan, err := eng.PlanFull(q)
	if err != nil {
		t.Fatal(err)
	}
	ctxs, _, _ := plan.Enumerate()
	recs, _, err := plan.SolveRange(ctxs, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := encodeJournalRec(&JournalRecord{
		T: recDone, Job: p.ID(), Hash: shardHash(p.ID(), 0, ctxs), Worker: "w1",
		Records: packRecords(eng.TA(), recs),
	})
	check("journal done record", string(jr), goldenJournal)
	parsed, err := parseJournalRec(1, []byte(goldenJournal))
	if err != nil {
		t.Fatal(err)
	}
	drecs, err := unpackShard(eng.TA(), q, parsed.Records, len(ctxs))
	if err != nil {
		t.Fatalf("decoding the golden journal record: %v", err)
	}
	folded, err := schema.FoldRecords(q.Name, drecs)
	if err != nil {
		t.Fatal(err)
	}
	if diff := CompareResults(label, res, folded); diff != "" {
		t.Errorf("journal round trip diverged: %s", diff)
	}
	certified("journal", folded.CE)

	resp, _ := json.Marshal(service.VerifyResponse{
		Engine: vcache.EngineVersion,
		Results: []service.QueryResult{{
			QueryMetrics: res.Row(label), Shared: true, ElapsedNS: 42, CEText: res.CE.Format(),
		}},
		ElapsedNS: 43,
	})
	check("service response", string(resp), goldenResponse)

	rep := obs.Report{Tool: "x"}
	rep.Deterministic.Queries = append(rep.Deterministic.Queries, res.Row(label))
	det, _ := rep.DeterministicJSON()
	check("report deterministic section", string(det), goldenReport)
}

// A journal written before records were packed holds its done records as
// JSON arrays. It must be refused when the coordinator opens it, by an error
// that names the format change and the record — not misparsed, and not
// silently restarted from nothing.
func TestLegacyJournalRefused(t *testing.T) {
	memfs := wal.NewMemFS()
	cfg := Config{ShardSize: 2, IdleLocalAfter: time.Hour, JournalDir: "j", JournalFS: memfs, JournalSync: wal.SyncNever}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	log, _, err := wal.Open(wal.Options{FS: memfs, Dir: "j", Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte(legacyJournal)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	for what, open := range map[string]func() error{
		"New":         func() error { c, err := New(cfg); closeIfOpen(c); return err },
		"ReadJournal": func() error { _, err := ReadJournal(memfs, "j"); return err },
	} {
		err := open()
		if err == nil {
			t.Fatalf("%s accepted a journal holding a JSON-array done record", what)
		}
		for _, want := range []string{"journal record 2", "JSON array", "packed records"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", what, err, want)
			}
		}
	}
}

func closeIfOpen(c *Coordinator) {
	if c != nil {
		c.Close()
	}
}
