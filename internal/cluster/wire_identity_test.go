package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/vcache"
)

// The four serialized forms of one fixed Violated full-mode verdict (the toy
// automaton's bad_unreach), captured byte for byte at dd64711 — before the
// solver-effort struct, the counterexample codec, the CRC32C framing and the
// report row each collapsed to one definition.
const (
	goldenEntry = "VCE1\x91\x01\x00\x00\xfa\xff@1" +
		`{"key":"5e2ffc1abb1872acd0c8e3aba4f4dfd50b205e5ec354ff81651a87d5aa0c68ff","engine":"1.2.0","query":"bad_unreach","mode":"full","outcome":"violated","schemas":2,"avg_len":2,"solver":{"lp_checks":5,"pivots":7,"rebuilds":1,"bb_nodes":1,"case_splits":2},"ce":{"params":{"f":1,"n":4,"t":1},"init_k":[3,0,0,0],"init_v":[0],"steps":[{"rule":0,"factor":1},{"rule":1,"factor":1}],"schema":["x - 1 \u003e= 0"]}}`
	goldenJournal  = `{"t":"done","job":"j4d3e6a19f2df63ff","worker":"w1","hash":"sf08148df9e9f4a339997f50a","records":[{"done":true,"status":"unsat","slots":1,"stats":{"lp_checks":2,"pivots":5,"rebuilds":1,"bb_nodes":0,"case_splits":1}},{"done":true,"status":"sat","slots":3,"stats":{"lp_checks":3,"pivots":2,"rebuilds":0,"bb_nodes":1,"case_splits":1},"ce":{"params":{"f":1,"n":4,"t":1},"init_k":[3,0,0,0],"init_v":[0],"steps":[{"rule":0,"factor":1},{"rule":1,"factor":1}],"schema":["x - 1 \u003e= 0"]}}]}`
	goldenResponse = `{"engine_version":"1.2.0","results":[{"model":"toy","query":"bad_unreach","mode":"full","outcome":"violated","schemas":2,"avg_len":2,"solver":{"lp_checks":5,"pivots":7,"rebuilds":1,"bb_nodes":1,"case_splits":2},"shared":true,"elapsed_ns":42,"ce_text":"parameters: n=4 t=1 f=1\ninit: A:3\n  r1 x1 (A -\u003e B): A:2 B:1 x=1\n  r2 x1 (B -\u003e BAD): A:2 BAD:1 x=1\n"}],"elapsed_ns":43}`
	goldenReport   = "{\n  \"queries\": [\n    {\n      \"model\": \"toy\",\n      \"query\": \"bad_unreach\",\n      \"mode\": \"full\",\n      \"outcome\": \"violated\",\n      \"schemas\": 2,\n      \"avg_len\": 2,\n      \"solver\": {\n        \"lp_checks\": 5,\n        \"pivots\": 7,\n        \"rebuilds\": 1,\n        \"bb_nodes\": 1,\n        \"case_splits\": 2\n      }\n    }\n  ]\n}"
)

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
	jr, _ := json.Marshal(&JournalRecord{
		T: recDone, Job: p.ID(), Hash: shardHash(p.ID(), 0, ctxs), Worker: "w1",
		Records: encodeRecords(eng.TA(), recs),
	})
	check("journal done record", string(jr), goldenJournal)
	var parsed JournalRecord
	if err := json.Unmarshal([]byte(goldenJournal), &parsed); err != nil {
		t.Fatal(err)
	}
	drecs, err := decodeRecords(eng.TA(), q, parsed.Records)
	if err != nil {
		t.Fatalf("decoding the parent's journal record: %v", err)
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
