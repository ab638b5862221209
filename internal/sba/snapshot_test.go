package sba

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
)

var snapCfg = Config{N: 4, T: 1, MaxRounds: 8}

// snapshotAfterSteps runs a 4-process reduction under a seeded random
// scheduler for at most maxSteps deliveries and returns the live processes —
// a generator of realistic mid-protocol states (buffered future rounds,
// partial quorums, nonempty outboxes).
func snapshotAfterSteps(t testing.TB, seed int64, maxSteps int, byz func(rng *rand.Rand) network.Process) []*Process {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := []int{int(seed) & 1, int(seed>>1) & 1, int(seed>>2) & 1}
	correct, err := Processes(snapCfg, inputs, protocol.AllIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	procs := []network.Process{correct[0], correct[1], correct[2], byz(rng)}
	sys, err := network.NewSystem(procs, network.RandomScheduler{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(maxSteps, nil); err != nil {
		t.Fatal(err)
	}
	return correct
}

func liar(rng *rand.Rand) network.Process { return Lies.Liar(3, protocol.AllIDs(4), rng) }

func freshProcess(t testing.TB, id network.ProcID) *Process {
	t.Helper()
	p, err := NewProcess(id, 0, snapCfg, protocol.AllIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotCodecRoundTrip is the property test of the snapshot body: for
// many seeded mid-protocol states, RestoreBytes(SnapshotBytes()) must be
// state-identical — same canonical bytes, same outbox order — both into a
// fresh process (the disk path) and back into the live one (the in-memory
// crash-recovery path).
func TestSnapshotCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, p := range snapshotAfterSteps(t, seed, 40+int(seed)*17%300, liar) {
			enc := p.SnapshotBytes()

			fresh := freshProcess(t, p.ID())
			if err := fresh.RestoreBytes(enc); err != nil {
				t.Fatalf("seed %d p%d: restore: %v", seed, p.ID(), err)
			}
			if !bytes.Equal(fresh.SnapshotBytes(), enc) {
				t.Fatalf("seed %d p%d: disk round-trip not state-identical", seed, p.ID())
			}
			if !reflect.DeepEqual(fresh.out.Messages(), p.out.Messages()) {
				t.Fatalf("seed %d p%d: outbox order changed across disk round-trip", seed, p.ID())
			}

			if err := p.RestoreBytes(enc); err != nil {
				t.Fatalf("seed %d p%d: in-memory restore: %v", seed, p.ID(), err)
			}
			if !bytes.Equal(p.SnapshotBytes(), enc) {
				t.Fatalf("seed %d p%d: in-memory round-trip not state-identical", seed, p.ID())
			}
		}
	}
}

// TestSnapshotCanonicalEncoding: two snapshots of the same state encode to
// identical bytes even though map iteration order differs between them.
func TestSnapshotCanonicalEncoding(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, p := range snapshotAfterSteps(t, seed, 200, liar) {
			if !bytes.Equal(p.SnapshotBytes(), p.SnapshotBytes()) {
				t.Fatalf("seed %d p%d: same state, different bytes", seed, p.ID())
			}
		}
	}
}

// TestRestoreIsolation: a restored process shares no memory with the bytes
// it was restored from or with the process that produced them — driving
// either further must not move the other.
func TestRestoreIsolation(t *testing.T) {
	p := snapshotAfterSteps(t, 7, 150, liar)[0]
	enc := p.SnapshotBytes()
	kept := append([]byte(nil), enc...)
	twin := freshProcess(t, p.ID())
	if err := twin.RestoreBytes(enc); err != nil {
		t.Fatal(err)
	}

	send := func(network.Message) {}
	p.Deliver(network.Message{From: 1, To: p.ID(), Round: p.Round(), Kind: network.MsgVote, Value: 1}, send)
	p.Deliver(network.Message{From: 2, To: p.ID(), Round: p.Round(), Kind: network.MsgVote, Value: 1}, send)
	if !bytes.Equal(enc, kept) || !bytes.Equal(twin.SnapshotBytes(), kept) {
		t.Fatal("snapshot or its restored twin mutated by post-capture deliveries")
	}
	if err := p.RestoreBytes(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.SnapshotBytes(), kept) {
		t.Fatal("restore did not reproduce the captured state")
	}
}

func TestDecodeSnapshotRejectsJunk(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},             // bad version
		{0x01},             // truncated after version
		{0x01, 0x80},       // dangling varint
		{0x01, 0x00, 0x80}, // dangling varint later
	}
	for i, b := range cases {
		if err := freshProcess(t, 0).RestoreBytes(b); err == nil {
			t.Errorf("case %d: decode accepted junk %v", i, b)
		}
	}
	// Trailing garbage after a valid snapshot must be rejected too, and a
	// failed restore must leave the process as it was.
	p := snapshotAfterSteps(t, 3, 100, liar)[0]
	enc := p.SnapshotBytes()
	if err := p.RestoreBytes(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Error("decode accepted trailing garbage")
	}
	if !bytes.Equal(p.SnapshotBytes(), enc) {
		t.Error("failed restore changed the process")
	}
}

// TestDecodeSnapshotIsInjective is the regression net of the decoder
// hardening: the old decoder read any non-zero byte as true and ignored the
// three unused round-flag bits, so distinct inputs decoded to one state. Every
// single-bit corruption of a valid snapshot must now either be rejected or
// survive a re-encode unchanged.
func TestDecodeSnapshotIsInjective(t *testing.T) {
	for _, p := range snapshotAfterSteps(t, 5, 220, liar) {
		enc := p.SnapshotBytes()
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				q := freshProcess(t, p.ID())
				if q.RestoreBytes(mut) == nil && !bytes.Equal(q.SnapshotBytes(), mut) {
					t.Fatalf("p%d: byte %d bit %d: accepted input re-encodes differently", p.ID(), i, bit)
				}
			}
		}
	}
}

// FuzzSnapshotDecode: RestoreBytes must never panic, any bytes it accepts
// must re-encode byte-identically, and the restored process must keep
// handling traffic. Seed corpus: testdata/fuzz/FuzzSnapshotDecode (a valid
// snapshot, a truncation, a flipped flag byte, and the outsideSenderSnapshots
// that name a sender outside [0, n) and must be refused) plus live states
// below.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	for seed := int64(1); seed <= 5; seed++ {
		silent := func(*rand.Rand) network.Process { return &protocol.Silent{Id: 3} }
		for _, p := range snapshotAfterSteps(f, seed, int(seed)*60, silent) {
			f.Add(p.SnapshotBytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := freshProcess(t, 0)
		if p.RestoreBytes(data) != nil {
			return
		}
		if !bytes.Equal(p.SnapshotBytes(), data) {
			t.Fatal("accepted input does not re-encode byte-identically")
		}
		send := func(network.Message) {}
		for from := network.ProcID(1); from <= 3; from++ {
			p.Deliver(network.Message{From: from, Round: p.Round(), Kind: network.MsgVote, Value: 1}, send)
			p.Deliver(network.Message{From: from, Round: p.Round(), Kind: network.MsgCand, Value: 1}, send)
		}
		p.OnTick(0, send)
	})
}

// outsideSenderSnapshot is a one-round snapshot of a process among
// snapCfg.N = 4 whose round holds the VOTE-0 senders votes and one candidate
// from cand, written field by field as SnapshotBytes lays them out. With
// every id in [0, 4) it decodes; with any id outside, no replica can hold
// that state and decoding must fail.
func outsideSenderSnapshot(votes []int, cand int) []byte {
	e := protocol.NewEnc(snapshotVersion)
	e.Int(0)         // est
	e.Int(0)         // round
	e.Bool(false)    // decided
	e.Int(0)         // decision
	e.Int(0)         // decided round
	e.Ints([]int{0}) // estimate history
	e.Uvarint(0)     // lock order: no rounds
	e.Uvarint(1)     // rounds: one,
	e.Int(0)         // round 0:
	e.Ints(votes)    // VOTE-0 senders, as Enc.ProcSet writes them
	e.Ints(nil)      // VOTE-1 senders
	e.Flags(false, false, false, false, false)
	e.Ints(nil)     // lock order
	e.Uvarint(1)    // candidates: one
	e.Int(cand)     // from cand,
	e.Int(1)        // the bit 1
	e.Messages(nil) // outbox
	return e.Bytes()
}

// outsideSenderSnapshots are the seeds of testdata/fuzz/FuzzSnapshotDecode
// that name a sender outside [0, n).
var outsideSenderSnapshots = map[string][]byte{
	"vote-sender-n":             outsideSenderSnapshot([]int{0, 4}, 1),
	"vote-sender-negative":      outsideSenderSnapshot([]int{-1, 2}, 1),
	"candidate-sender-n":        outsideSenderSnapshot([]int{0, 3}, 4),
	"candidate-sender-negative": outsideSenderSnapshot([]int{0, 3}, -1),
}

// TestDecodeSnapshotRejectsOutsideSenders: a sender outside [0, n) in a
// round's vote sets or candidates fails the decode cleanly, and leaves the
// process as it was.
func TestDecodeSnapshotRejectsOutsideSenders(t *testing.T) {
	if err := freshProcess(t, 0).RestoreBytes(outsideSenderSnapshot([]int{0, 3}, 2)); err != nil {
		t.Fatalf("in-range control snapshot: %v", err)
	}
	for name, b := range outsideSenderSnapshots {
		p := freshProcess(t, 0)
		before := p.SnapshotBytes()
		if err := p.RestoreBytes(b); err == nil || !strings.Contains(err.Error(), "outside [0, 4)") {
			t.Errorf("%s: restore error %v, want one naming the range [0, 4)", name, err)
		}
		if !bytes.Equal(p.SnapshotBytes(), before) {
			t.Errorf("%s: failed restore changed the process", name)
		}
	}
}

// TestDeliverAllocs is the allocation gate on the delivery path: a VOTE
// from a sender not seen before, into a round whose state exists, allocates
// nothing (the sender sets are bitsets sized when the round is created).
// The echo threshold t+1 lies beyond the deliveries, so no vote is sent.
func TestDeliverAllocs(t *testing.T) {
	cfg := Config{N: 1024, T: 341, MaxRounds: 4}
	p, err := NewProcess(0, 0, cfg, protocol.AllIDs(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	send := func(network.Message) {}
	p.Start(send)
	from := network.ProcID(1)
	allocs := testing.AllocsPerRun(300, func() {
		p.Deliver(network.Message{From: from, Round: 0, Kind: network.MsgVote, Value: 1}, send)
		from++
	})
	if allocs != 0 {
		t.Errorf("a VOTE from a new sender allocated %v times", allocs)
	}
	if got := p.state(0).voteSenders[1].Len(); got != 301 {
		t.Errorf("%d VOTE-1 senders recorded, want 301", got)
	}
}

// TestDeliverIgnoredCreatesNoRound: a message Deliver ignores — an unknown
// kind, a value other than 0 and 1 — creates no round state, so it cannot
// grow the snapshot of a replica it never moved.
func TestDeliverIgnoredCreatesNoRound(t *testing.T) {
	cfg := Config{N: 1024, T: 341, MaxRounds: 12}
	p, err := NewProcess(0, 0, cfg, protocol.AllIDs(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	var sent []network.Message
	send := func(m network.Message) { sent = append(sent, m) }
	p.Start(send)
	rounds, before, out := len(p.rounds), p.SnapshotBytes(), len(sent)
	for r := 1; r <= cfg.MaxRounds; r++ {
		p.Deliver(network.Message{From: 5, Round: r, Kind: "ZAP", Value: 1}, send)
	}
	for r := 1; r <= cfg.MaxRounds; r++ {
		for _, k := range []network.MsgKind{network.MsgVote, network.MsgCand} {
			for _, v := range []int{-1, 2, 1 << 40} {
				p.Deliver(network.Message{From: 5, Round: r, Kind: k, Value: v}, send)
			}
		}
	}
	if len(p.rounds) != rounds {
		t.Errorf("ignored messages created %d round states", len(p.rounds)-rounds)
	}
	if !bytes.Equal(p.SnapshotBytes(), before) {
		t.Error("ignored messages changed the snapshot")
	}
	if len(sent) != out {
		t.Errorf("ignored messages triggered %d sends", len(sent)-out)
	}
}
