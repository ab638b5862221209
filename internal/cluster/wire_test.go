package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
)

// shardFixture is one solved shard with everything its codecs need.
type shardFixture struct {
	payload JobPayload
	a       *ta.TA
	q       *spec.Query
	guards  int
	ctxs    [][]int
	recs    []schema.IndexRecord
	packed  []byte
}

func solveFixture(t testing.TB, p JobPayload, contexts int) *shardFixture {
	t.Helper()
	eng, plan := planFor(t, p)
	_, _, q, _ := p.Resolve()
	ctxs, _ := plan.EnumeratePrefix(contexts, nil)
	recs, _, err := plan.SolveRange(ctxs, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &shardFixture{
		payload: p, a: eng.TA(), q: q, guards: len(plan.AlphabetKeys()),
		ctxs: ctxs, recs: recs, packed: packRecords(eng.TA(), recs),
	}
}

// toyShard is the toy job's whole tree as one shard: an Unsat and a
// certified Sat. Its packed form is goldenPacked (wire_identity_test.go).
func toyShard(t testing.TB) *shardFixture {
	return solveFixture(t, JobPayload{TA: toyTA, Spec: toySpec, Prop: "bad_unreach"}, 2)
}

// naiveShard is the first shard of the cluster benchmark's job: 256
// contexts of naive/Inv2_0, nearly all settled by pruning (no solver effort,
// so no stats block).
func naiveShard(t testing.TB) *shardFixture {
	return solveFixture(t, JobPayload{Model: "naive", Prop: "Inv2_0", Truncate: 256}, 256)
}

func TestPackedRecordsRoundTrip(t *testing.T) {
	toy, naive := toyShard(t), naiveShard(t)
	if string(toy.packed) != goldenPacked {
		t.Fatalf("toy shard packs to %q, want goldenPacked", toy.packed)
	}
	for name, fx := range map[string]*shardFixture{"toy": toy, "naive": naive} {
		recs, err := unpackShard(fx.a, fx.q, fx.packed, len(fx.ctxs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range recs {
			got, want := recs[i], fx.recs[i]
			if (got.CE == nil) != (want.CE == nil) || (got.CE != nil && got.CE.Format() != want.CE.Format()) {
				t.Errorf("%s record %d: counterexample changed in transit", name, i)
			}
			got.CE, want.CE = nil, nil
			if got != want {
				t.Errorf("%s record %d: %+v, want %+v", name, i, got, want)
			}
		}
		if again := packRecords(fx.a, recs); !bytes.Equal(again, fx.packed) {
			t.Errorf("%s: re-packing the unpacked records changed the bytes", name)
		}
	}
	if len(naive.packed) > 4*len(naive.recs) {
		t.Errorf("pruned naive shard packs to %d bytes for %d records", len(naive.packed), len(naive.recs))
	}
}

// Everything packRecords would not have written is refused, and so is a
// violation without proof.
func TestUnpackRecordsRejects(t *testing.T) {
	toy := toyShard(t)
	const head = "\x02" + "\x05\x01\x02\x05\x01\x00\x01"
	const sat = "\x06\x03\x03\x02\x00\x01\x01"
	if head+sat+"\x91\x01"+goldenCE != goldenPacked {
		t.Fatal("the pieces below no longer spell goldenPacked")
	}
	spaced := strings.Replace(goldenCE, `,"init_k"`, `, "init_k"`, 1)
	unreplayable := strings.Replace(goldenCE, `{"rule":1,"factor":1}`, `{"rule":1,"factor":2}`, 1)
	for _, tc := range []struct{ name, data, want string }{
		{"empty", "", "record count: truncated"},
		{"count larger than the input", "\xff\x01" + goldenPacked[1:], "records claimed in"},
		{"count not in shortest form", "\x82\x00" + goldenPacked[1:], "shortest form"},
		{"count overflows", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "overflows"},
		{"trailing byte", goldenPacked + "\x00", "trailing"},
		{"unknown status bits", "\x02" + "\x0d" + goldenPacked[2:], "unknown solver status"},
		{"stats on an unsolved index", "\x02" + "\x04" + goldenPacked[2:], "unknown solver status"},
		{"all-zero stats block", "\x01" + "\x05\x01\x00\x00\x00\x00\x00", "all zero"},
		{"sat without a counterexample", head + sat + "\x00", "sat without a counterexample"},
		{"counterexample longer than the input", head + sat + "\x92\x01" + goldenCE, "in 145 left"},
		{"counterexample is not JSON", head + sat + "\x02{]", "counterexample:"},
		{"counterexample not canonical", head + sat + "\x92\x01" + spaced, "canonical"},
		{"counterexample does not replay", head + sat + "\x91\x01" + unreplayable, "re-certification"},
	} {
		_, err := unpackRecords(toy.a, toy.q, []byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(goldenPacked); n++ {
		if _, err := unpackRecords(toy.a, toy.q, []byte(goldenPacked[:n])); err == nil {
			t.Errorf("the %d-byte prefix of the toy shard was accepted", n)
		}
	}
	if _, err := unpackShard(toy.a, toy.q, toy.packed, 3); err == nil || !strings.Contains(err.Error(), "2 records for 3 contexts") {
		t.Errorf("two records for a three-context shard: %v", err)
	}
}

func TestPackedContextsRoundTrip(t *testing.T) {
	naive := naiveShard(t)
	packed := packContexts(naive.ctxs)
	ctxs, err := unpackContexts(packed, naive.guards)
	if err != nil {
		t.Fatal(err)
	}
	if shardHash("j", 0, ctxs) != shardHash("j", 0, naive.ctxs) {
		t.Fatal("contexts hash differently after a round trip")
	}
	same := func(what string) {
		t.Helper()
		for i := range ctxs {
			if i != 1 && !(len(ctxs[i]) == 0 && len(naive.ctxs[i]) == 0) && !reflect.DeepEqual(ctxs[i], naive.ctxs[i]) {
				t.Fatalf("%s: context %d is %v, want %v", what, i, ctxs[i], naive.ctxs[i])
			}
		}
	}
	same("round trip")
	if !reflect.DeepEqual(ctxs[1], naive.ctxs[1]) {
		t.Fatalf("round trip: context 1 is %v, want %v", ctxs[1], naive.ctxs[1])
	}
	// Each decoded context owns its storage, like the enumerator's.
	ctxs[1][0]++
	same("after writing to context 1")
	if per := float64(len(packed)) / float64(len(ctxs)); per > 5 {
		t.Errorf("%.1f bytes per context front-coded; preorder neighbours should cost about four", per)
	}

	// [] [3] [3 1] [3 2] [4]: 05 | 00 00 | 00 01 03 | 01 01 01 | 01 01 02 | 00 01 04
	small := [][]int{nil, {3}, {3, 1}, {3, 2}, {4}}
	const smallPacked = "\x05" + "\x00\x00" + "\x00\x01\x03" + "\x01\x01\x01" + "\x01\x01\x02" + "\x00\x01\x04"
	if got := packContexts(small); string(got) != smallPacked {
		t.Fatalf("packContexts(%v) = %q, want %q", small, got, smallPacked)
	}
	for _, tc := range []struct{ name, data, want string }{
		{"empty", "", "context count: truncated"},
		{"count larger than the input", "\x7f" + smallPacked[1:], "contexts claimed in"},
		{"trailing byte", smallPacked + "\x00", "trailing"},
		{"shares more than the predecessor has", "\x02" + "\x00\x00" + "\x01\x00", "shares 1 of 0"},
		{"suffix longer than the input", "\x01" + "\x00\x05\x01", "adds 5 with 1 bytes left"},
		{"longer than the alphabet", "\x01" + "\x00\x09\x01\x02\x03\x04\x05\x06\x07\x08\x09", "at most 8"},
		{"shared prefix not the longest", "\x02" + "\x00\x01\x03" + "\x00\x02\x03\x01", "not the longest"},
		{"guard not in shortest form", "\x01" + "\x00\x01\x83\x00", "shortest form"},
	} {
		_, err := unpackContexts([]byte(tc.data), 8)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(smallPacked); n++ {
		if _, err := unpackContexts([]byte(smallPacked[:n]), 8); err == nil {
			t.Errorf("the %d-byte prefix of the small shard was accepted", n)
		}
	}
}

// The fuzz targets start from the checked-in corpora under testdata/fuzz
// (the toy Violated shard and one pruned naive shard, packed) plus the same
// bytes computed live, so a layout change that forgets the corpus still
// fuzzes the current form.

func FuzzUnpackRecords(f *testing.F) {
	toy := toyShard(f)
	f.Add(toy.packed)
	f.Add(naiveShard(f).packed)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := unpackRecords(toy.a, toy.q, data)
		if err != nil {
			return
		}
		if len(recs) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(recs), len(data))
		}
		if again := packRecords(toy.a, recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %q but it re-packs to %q", data, again)
		}
	})
}

func FuzzUnpackContexts(f *testing.F) {
	f.Add(packContexts(toyShard(f).ctxs))
	f.Add(packContexts(naiveShard(f).ctxs))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxLen = 64
		ctxs, err := unpackContexts(data, maxLen)
		if err != nil {
			return
		}
		if 2*len(ctxs) > len(data) {
			t.Fatalf("%d contexts out of %d bytes", len(ctxs), len(data))
		}
		for i, ctx := range ctxs {
			if len(ctx) > maxLen {
				t.Fatalf("context %d has %d guards, cap %d", i, len(ctx), maxLen)
			}
		}
		if again := packContexts(ctxs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %q but it re-packs to %q", data, again)
		}
	})
}

// replayCoordinator is a coordinator mid-replay holding one built job and
// running no goroutines: what Coordinator.apply sees.
func replayCoordinator(t testing.TB, p JobPayload, shardSize int) (*Coordinator, *job) {
	t.Helper()
	c := &Coordinator{
		cfg:       Config{ShardSize: shardSize, LocalWorkers: 1}.withDefaults(),
		jobs:      make(map[string]*job),
		rng:       rand.New(rand.NewSource(1)),
		stopCh:    make(chan struct{}),
		replaying: true,
	}
	j, exceeded, err := c.buildJob(p.ID(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.installJob(j, exceeded)
	return c, j
}

// FuzzJournalApply feeds arbitrary journal frames to a coordinator replaying
// the toy job: no panic, a done record is integrated only as the records it
// unpacks to, and the shard ledger stays consistent.
func FuzzJournalApply(f *testing.F) {
	toy := toyShard(f)
	id := toy.payload.ID()
	f.Add([]byte(goldenJournal))
	f.Add(encodeJournalRec(&JournalRecord{T: recJob, Job: id, Payload: &toy.payload, ShardSize: 2, Contexts: 2}))
	f.Add(encodeJournalRec(&JournalRecord{T: recAssign, Job: id, Worker: "w1", Lease: "L000001-00000000", Attempt: 1}))
	f.Add(encodeJournalRec(&JournalRecord{T: recExpire, Job: id, Worker: "w1", Lease: "L000001-00000000", Attempt: 1}))
	f.Add(encodeJournalRec(&JournalRecord{T: recJobDone, Job: id}))
	f.Add(encodeJournalRec(&JournalRecord{T: recDone, Job: "j0", Hash: "s0", Worker: "bench-0", Records: naiveShard(f).packed}))
	f.Add([]byte(legacyJournal))
	f.Fuzz(func(t *testing.T, frame []byte) {
		r, err := parseJournalRec(1, frame)
		if err != nil {
			return
		}
		c, j := replayCoordinator(t, toy.payload, 2)
		c.mu.Lock()
		defer c.mu.Unlock()
		err = c.apply(&r)
		open := 0
		for _, s := range j.shards {
			if s.state != shardDone && s.state != shardCancelled {
				open++
			}
		}
		if open != j.open || j.finished != (open == 0) {
			t.Fatalf("after %s (err %v): %d shards open, ledger says %d, finished=%v", r.T, err, open, j.open, j.finished)
		}
		if j.shards[0].state != shardDone {
			return
		}
		if err != nil || r.T != recDone || !bytes.Equal(packRecords(j.a, j.recs), r.Records) {
			t.Fatalf("shard done after %s (err %v) with records other than the frame's", r.T, err)
		}
	})
}
