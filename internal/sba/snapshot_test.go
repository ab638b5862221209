package sba

import (
	"bytes"
	"math/rand"
	"reflect"
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
// snapshot, a truncation, a flipped flag byte) plus live states below.
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
