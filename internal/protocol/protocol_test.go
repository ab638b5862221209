package protocol

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
)

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	ints := []int{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	set := map[network.ProcID]bool{7: true, 0: true, 300: true}
	byRound := map[int][]int{3: {1, 0}, -2: nil, 0: {5}}

	e := NewEnc(9)
	e.Uvarint(math.MaxUint64)
	e.Ints(ints)
	e.Bool(true)
	e.Bool(false)
	e.Flags(true, false, true, true, false)
	e.Str("tx\x1fdata")
	e.ProcSet(set)
	EncMap(e, byRound, (*Enc).Ints)

	d := NewDec(e.Bytes(), 9)
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint %d", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, ints) {
		t.Errorf("ints %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools")
	}
	var f [5]bool
	d.Flags(&f[0], &f[1], &f[2], &f[3], &f[4])
	if f != [5]bool{true, false, true, true, false} {
		t.Errorf("flags %v", f)
	}
	if got := d.Str(); got != "tx\x1fdata" {
		t.Errorf("str %q", got)
	}
	if got := d.ProcSet("sender"); !reflect.DeepEqual(got, set) {
		t.Errorf("proc set %v", got)
	}
	if got := DecMap(d, "round", (*Dec).Ints); !reflect.DeepEqual(got, byRound) {
		t.Errorf("map %v", got)
	}
	if err := d.Finish("test"); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRejectsWhatNoEncoderEmits holds one case per hardening rule:
// each input decoded fine before the kit (to the same value as its canonical
// twin), so Encode(Decode(b)) != b.
func TestDecoderRejectsWhatNoEncoderEmits(t *testing.T) {
	ints := func(d *Dec) { d.Ints() }
	cases := []struct {
		name string
		in   []byte
		read func(*Dec)
		want string
	}{
		{"bool byte 2", []byte{2}, func(d *Dec) { d.Bool() }, "unknown flag bits"},
		{"bool byte 0xff", []byte{0xff}, func(d *Dec) { d.Bool() }, "unknown flag bits"},
		{"flag bits 0xE0", []byte{0x1f | 0x20}, func(d *Dec) {
			var f [5]bool
			d.Flags(&f[0], &f[1], &f[2], &f[3], &f[4])
		}, "unknown flag bits"},
		{"non-minimal zero", []byte{0x80, 0x00}, func(d *Dec) { d.Uvarint() }, "non-minimal"},
		{"non-minimal length", []byte{0x81, 0x00, 0x02}, ints, "non-minimal"},
		{"length over cap", []byte{0x81, 0x80, 0x40}, ints, "exceeds cap"},
		{"dangling varint", []byte{0x80}, func(d *Dec) { d.Int() }, "bad varint"},
		{"string past end", []byte{0x05, 'a'}, func(d *Dec) { d.Str() }, "past end"},
		{"flags past end", nil, func(d *Dec) { d.Bool() }, "past end"},
		{"unsorted set", []byte{2, 4, 2}, func(d *Dec) { d.ProcSet("sender") }, "sender 1 out of order"},
		{"duplicate set member", []byte{2, 4, 4}, func(d *Dec) { d.ProcSet("sender") }, "out of order"},
		{"unsorted map keys", []byte{2, 4, 0, 2, 0}, func(d *Dec) { DecMap(d, "round", (*Dec).Ints) }, "round 1 out of order"},
		{"duplicate map key", []byte{2, 4, 0, 4, 0}, func(d *Dec) { DecMap(d, "round", (*Dec).Ints) }, "out of order"},
		{"trailing byte", []byte{0, 0}, func(d *Dec) { d.Bool() }, "trailing"},
	}
	for _, tc := range cases {
		d := &Dec{b: tc.in}
		tc.read(d)
		if err := d.Finish("test"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	for _, b := range [][]byte{nil, {}, {2}} {
		if NewDec(b, 1).Err() == nil {
			t.Errorf("envelope %v accepted", b)
		}
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []network.Message{
		{},
		{From: 1, To: 2, Round: 3, Kind: network.MsgBV, Value: 1, Instance: 2},
		{From: 0, To: 3, Round: 5, Kind: network.MsgAux, Value: -1, Set: []int{0, 1}},
		{From: 2, To: 1, Kind: network.MsgProp, Proposer: 2, Payload: "tx\x1fdata"},
		{From: 3, To: 0, Round: 1, Kind: network.MsgCand, Value: 1},
		{From: -1, To: -1, Round: -4, Value: -7, Seq: 99}, // Seq not persisted
	}
	for i, m := range msgs {
		got, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		m.Seq = 0 // per-copy metadata is deliberately dropped
		if !reflect.DeepEqual(got, m) {
			t.Errorf("case %d: round-trip %+v != %+v", i, got, m)
		}
	}
}

// FuzzDecodeMessage: the record-level codec must never panic, and any bytes
// it accepts must re-encode byte-identically. Seed corpus:
// testdata/fuzz/FuzzDecodeMessage.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMessage(network.Message{From: 1, To: 2, Kind: network.MsgAux, Set: []int{0, 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeMessage(m), data) {
			t.Fatalf("accepted input does not re-encode byte-identically: %+v", m)
		}
	})
}

// TestTimerBackoff pins the quiet-period regime: traffic skips a period
// without touching the countdown, waits double 1, 2, 4, 8 and stay capped,
// and round entry makes the next quiet tick fire at once.
func TestTimerBackoff(t *testing.T) {
	var tm Timer
	fired := func(ticks int) (at []int) {
		for i := 0; i < ticks; i++ {
			if tm.Due() {
				at = append(at, i)
			}
		}
		return at
	}
	if got, want := fired(40), []int{0, 2, 5, 10, 19, 28, 37}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quiet ticks fired at %v, want %v", got, want)
	}
	tm.SawTraffic()
	if tm.Due() {
		t.Fatal("fired in a period that saw traffic")
	}
	tm.ResetBackoff()
	if got, want := fired(4), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after round entry fired at %v, want %v", got, want)
	}
}

// TestOutboxRetransmitsVerbatimAndCounts: every recorded broadcast goes back
// out to every peer in order, a recovered record replaces the old one and
// resets the timer, and each firing lands on the owner's counter — the one
// sba lost when its timer was a copy.
func TestOutboxRetransmitsVerbatimAndCounts(t *testing.T) {
	counter := obs.NewRegistry().Counter("test", "retransmissions")
	o := NewOutbox(AllIDs(3), counter)
	var wire []network.Message
	send := func(m network.Message) { wire = append(wire, m) }
	o.Broadcast(send, network.Message{From: 0, Kind: network.MsgBV, Value: 1})
	o.Broadcast(send, network.Message{From: 0, Kind: network.MsgAux, Set: []int{1}})
	first := append([]network.Message(nil), wire...)
	if len(first) != 6 {
		t.Fatalf("2 broadcasts to 3 peers put %d messages on the wire", len(first))
	}
	wire = nil
	o.OnTick(send)
	if !reflect.DeepEqual(wire, first) {
		t.Fatalf("retransmission %v differs from the original sends %v", wire, first)
	}
	o.OnTick(send) // backoff: left == 1
	if len(wire) != 6 || counter.Load() != 1 {
		t.Fatalf("second tick re-sent (wire %d, counter %d)", len(wire), counter.Load())
	}
	wire = nil
	o.Reboot(o.Messages()[:1])
	o.OnTick(send)
	if len(wire) != 3 || counter.Load() != 2 {
		t.Fatalf("rebooted outbox sent %d messages, counter %d", len(wire), counter.Load())
	}
}

var testLies = Lies{
	Split: func(m network.Message, v int, send network.Sender) {
		m.Value = v
		send(m)
	},
	Random: func(m network.Message, rng *rand.Rand, send network.Sender) {
		m.Value = rng.Intn(1 << 30)
		send(m)
	},
}

func TestStrategies(t *testing.T) {
	all := AllIDs(4)
	run := func(p network.Process) (wire []network.Message) {
		send := func(m network.Message) { wire = append(wire, m) }
		p.Start(send)
		p.Deliver(network.Message{Round: 2}, send)
		p.Deliver(network.Message{Round: 2}, send) // a round is emitted once
		p.Deliver(network.Message{Round: 0}, send)
		return wire
	}
	for _, name := range Strategies {
		p, err := testLies.Strategy(name, 3, all, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		wire := run(p)
		if name == "silent" {
			if len(wire) != 0 {
				t.Errorf("silent sent %v", wire)
			}
			continue
		}
		if len(wire) != 6 {
			t.Fatalf("%s: %d messages for 2 rounds to 3 peers", name, len(wire))
		}
		for i, m := range wire {
			if m.From != 3 || m.To != network.ProcID(i%3) || m.Round != 2*(i/3) {
				t.Errorf("%s: message %d addressed %+v", name, i, m)
			}
			if name == "equivocator" && m.Value != map[bool]int{true: 0, false: 1}[m.To < 2] {
				t.Errorf("equivocator told p%d %d", m.To, m.Value)
			}
		}
	}
	if _, err := testLies.Strategy("loud", 3, all, 2, 11); err == nil {
		t.Error("unknown strategy accepted")
	}
	// A liar's coins derive from seed and id: same pair replays, another id
	// or seed draws a different stream.
	liar := func(id network.ProcID, seed int64) []network.Message {
		p, _ := testLies.Strategy("liar", id, all, 2, seed)
		return run(p)
	}
	if !reflect.DeepEqual(liar(3, 11), liar(3, 11)) {
		t.Error("liar not replayable")
	}
	if a, b, c := liar(3, 11), liar(2, 11), liar(3, 12); a[0].Value == b[0].Value || a[0].Value == c[0].Value {
		t.Error("liars share a coin stream across ids or seeds")
	}
}

// fakeReplica is the least a Replica can be.
type fakeReplica struct {
	Silent
	est, round, decidedRound int
	decided                  bool
}

func (f *fakeReplica) Decided() (int, int, bool) { return f.est, f.decidedRound, f.decided }
func (f *fakeReplica) Round() int                { return f.round }
func (f *fakeReplica) Estimate() int             { return f.est }
func (f *fakeReplica) SnapshotBytes() []byte     { return nil }
func (f *fakeReplica) RestoreBytes([]byte) error { return nil }

func TestInvariantHelpers(t *testing.T) {
	procs := []*fakeReplica{
		{Silent: Silent{Id: 2}, est: 1, round: 3, decidedRound: 1, decided: true},
		{Silent: Silent{Id: 0}, est: 0, round: 2},
		{Silent: Silent{Id: 1}, est: 1, round: 4, decidedRound: 3, decided: true},
	}
	if err := Agreement("kit", procs); err != nil {
		t.Error(err)
	}
	if err := Validity("kit", procs, []int{0, 1}); err != nil {
		t.Error(err)
	}
	if err := Validity("kit", procs, []int{0, 0}); err == nil || !strings.HasPrefix(err.Error(), "kit: validity violated: process 2 decided 1") {
		t.Errorf("validity: %v", err)
	}
	if AllDecided(procs) {
		t.Error("p0 has not decided")
	}
	want := "p0: est=0 round=2 decided=-\np1: est=1 round=4 decided=1@r3\np2: est=1 round=3 decided=1@r1\n"
	if got := Describe(procs); got != want {
		t.Errorf("describe:\n%s", got)
	}
	procs[1].decided = true
	if !AllDecided(procs) {
		t.Error("all decided")
	}
	if err := Agreement("kit", procs); err == nil || err.Error() != "kit: agreement violated: process 2 decided 1, process 0 decided 0" {
		t.Errorf("agreement: %v", err)
	}
}
