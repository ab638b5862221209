// Package binarytest is the test table of the protocol kit's two-step binary
// engine (protocol.Binary): the configuration, snapshot-codec, decoder and
// delivery-path checks every protocol.BinaryRules value must pass. Each front-end's test
// file runs every check with its own rules value, under the test names the
// front-end has always had, next to its seed corpora in testdata/fuzz.
package binarytest

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
)

// n, t and maxRounds are the system the snapshot checks run: four replicas,
// the fourth Byzantine.
const (
	n         = 4
	t         = 1
	maxRounds = 8
)

func newReplica(tb testing.TB, r *protocol.BinaryRules, id network.ProcID, input, n, t, maxRounds int) *protocol.Binary {
	tb.Helper()
	p, err := r.NewProcess(id, input, protocol.Config{N: n, T: t, MaxRounds: maxRounds}, protocol.AllIDs(n))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func fresh(tb testing.TB, r *protocol.BinaryRules, id network.ProcID) *protocol.Binary {
	tb.Helper()
	return newReplica(tb, r, id, 0, n, t, maxRounds)
}

// afterSteps runs three correct replicas and byz under a seeded random
// scheduler for at most maxSteps deliveries and returns the correct ones — a
// generator of realistic mid-protocol states (buffered future rounds,
// partial quorums, nonempty outboxes).
func afterSteps(tb testing.TB, r *protocol.BinaryRules, seed int64, maxSteps int, byz func(rng *rand.Rand) network.Process) []*protocol.Binary {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := []int{int(seed) & 1, int(seed>>1) & 1, int(seed>>2) & 1}
	correct := make([]*protocol.Binary, len(inputs))
	procs := make([]network.Process, 0, n)
	for i, in := range inputs {
		correct[i] = newReplica(tb, r, network.ProcID(i), in, n, t, maxRounds)
		procs = append(procs, correct[i])
	}
	sys, err := network.NewSystem(append(procs, byz(rng)), network.RandomScheduler{Rng: rng})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.Run(maxSteps, nil); err != nil {
		tb.Fatal(err)
	}
	return correct
}

func liar(r *protocol.BinaryRules) func(rng *rand.Rand) network.Process {
	lies := r.Lies()
	return func(rng *rand.Rand) network.Process { return lies.Liar(3, protocol.AllIDs(n), rng) }
}

func silent(*rand.Rand) network.Process { return &protocol.Silent{Id: 3} }

func discard(network.Message) {}

// vote is (Vote, v) from a sender; announce is its announcement of the bit v.
func vote(r *protocol.BinaryRules, from network.ProcID, round, v int) network.Message {
	return network.Message{From: from, Round: round, Kind: r.Vote, Value: v}
}

func announce(r *protocol.BinaryRules, from network.ProcID, round, v int) network.Message {
	m := network.Message{From: from, Round: round, Kind: r.Announce, Value: v}
	if r.AnnounceSet {
		m.Value, m.Set = -1, network.SetOf(v)
	}
	return m
}

// resent is the outbox of p in broadcast order, as a retransmission sends it.
func resent(p *protocol.Binary) []network.Message {
	var out []network.Message
	p.Retransmit(func(m network.Message) { out = append(out, m) })
	return out
}

// SnapshotCodecRoundTrip is the property test of the snapshot body: for many
// seeded mid-protocol states, RestoreBytes(SnapshotBytes()) must be
// state-identical — same canonical bytes, same outbox order — both into a
// fresh replica (the disk path) and back into the live one (the in-memory
// crash-recovery path).
func SnapshotCodecRoundTrip(tt *testing.T, r *protocol.BinaryRules) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, p := range afterSteps(tt, r, seed, 40+int(seed)*17%300, liar(r)) {
			enc := p.SnapshotBytes()

			q := fresh(tt, r, p.ID())
			if err := q.RestoreBytes(enc); err != nil {
				tt.Fatalf("seed %d p%d: restore: %v", seed, p.ID(), err)
			}
			if !bytes.Equal(q.SnapshotBytes(), enc) {
				tt.Fatalf("seed %d p%d: disk round-trip not state-identical", seed, p.ID())
			}
			if !reflect.DeepEqual(resent(q), resent(p)) {
				tt.Fatalf("seed %d p%d: outbox order changed across disk round-trip", seed, p.ID())
			}

			if err := p.RestoreBytes(enc); err != nil {
				tt.Fatalf("seed %d p%d: in-memory restore: %v", seed, p.ID(), err)
			}
			if !bytes.Equal(p.SnapshotBytes(), enc) {
				tt.Fatalf("seed %d p%d: in-memory round-trip not state-identical", seed, p.ID())
			}
		}
	}
}

// SnapshotCanonicalEncoding: two snapshots of the same state encode to
// identical bytes even though map iteration order differs between them.
func SnapshotCanonicalEncoding(tt *testing.T, r *protocol.BinaryRules) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, p := range afterSteps(tt, r, seed, 200, liar(r)) {
			if !bytes.Equal(p.SnapshotBytes(), p.SnapshotBytes()) {
				tt.Fatalf("seed %d p%d: same state, different bytes", seed, p.ID())
			}
		}
	}
}

// RestoreIsolation: a restored replica shares no memory with the bytes it
// was restored from or with the replica that produced them — driving either
// further must not move the other.
func RestoreIsolation(tt *testing.T, r *protocol.BinaryRules) {
	p := afterSteps(tt, r, 7, 150, liar(r))[0]
	enc := p.SnapshotBytes()
	kept := append([]byte(nil), enc...)
	twin := fresh(tt, r, p.ID())
	if err := twin.RestoreBytes(enc); err != nil {
		tt.Fatal(err)
	}

	p.Deliver(vote(r, 1, p.Round(), 1), discard)
	p.Deliver(vote(r, 2, p.Round(), 1), discard)
	if !bytes.Equal(enc, kept) || !bytes.Equal(twin.SnapshotBytes(), kept) {
		tt.Fatal("snapshot or its restored twin mutated by post-capture deliveries")
	}
	if err := p.RestoreBytes(enc); err != nil {
		tt.Fatal(err)
	}
	if !bytes.Equal(p.SnapshotBytes(), kept) {
		tt.Fatal("restore did not reproduce the captured state")
	}
}

// round0 is a snapshot of a replica among n at round 0 whose only round
// state holds the vote-0 senders votes and one announcement {1} from from,
// written field by field as SnapshotBytes lays it out. collected1 marks bit
// 1 collected; order is the collect-order map's entry for round orderRound
// (0 unless set), and own round 0's own copy of its order, which CAND rules
// write into the round state. The outbox is empty, or holds the one message
// sent.
type round0 struct {
	votes      []int
	from       int
	collected1 bool
	orderRound int
	order, own []int
	sent       *rawMsg
}

// rawMsg is a message as the record layout of Enc.Message writes it, every
// field free: the kind as a name, the set as an int list, and the three
// retired vector-consensus slots.
type rawMsg struct {
	kind               string
	set                []int
	instance, proposer int
	payload            string
}

func (m rawMsg) encode(e *protocol.Enc) {
	e.Int(0) // from
	e.Int(1) // to
	e.Int(0) // round
	e.Str(m.kind)
	e.Int(-1) // value
	e.Ints(m.set)
	e.Int(m.instance)
	e.Int(m.proposer)
	e.Str(m.payload)
}

func (s round0) bytes(r *protocol.BinaryRules) []byte {
	e := protocol.NewEnc(protocol.BinarySnapshotVersion)
	e.Int(0)         // est
	e.Int(0)         // round
	e.Bool(false)    // decided
	e.Int(0)         // decision
	e.Int(0)         // decided round
	e.Ints([]int{0}) // estimate history
	if s.order != nil {
		e.Uvarint(1) // collect order: one round's
		e.Int(s.orderRound)
		e.Ints(s.order)
	} else {
		e.Uvarint(0) // collect order: no rounds
	}
	e.Uvarint(1)    // rounds: one,
	e.Int(0)        // round 0:
	e.Ints(s.votes) // vote-0 senders, as Enc.ProcSet writes them
	e.Ints(nil)     // vote-1 senders
	e.Flags(false, false, false, s.collected1, false)
	if !r.AnnounceSet {
		e.Ints(s.own)
	}
	e.Uvarint(1)       // announcements: one
	e.Int(s.from)      // from s.from,
	if r.AnnounceSet { // announcing 1
		e.Ints([]int{1})
	} else {
		e.Int(1)
	}
	if s.sent == nil {
		e.Messages(nil) // outbox
	} else {
		e.Uvarint(1)
		s.sent.encode(e)
	}
	return e.Bytes()
}

// refuses asserts that restoring b fails with an error naming want and
// leaves the replica as it was.
func refuses(tt *testing.T, r *protocol.BinaryRules, name string, b []byte, want string) {
	tt.Helper()
	p := fresh(tt, r, 0)
	before := p.SnapshotBytes()
	if err := p.RestoreBytes(b); err == nil || !strings.Contains(err.Error(), want) {
		tt.Errorf("%s: restore error %v, want one naming %q", name, err, want)
	}
	if !bytes.Equal(p.SnapshotBytes(), before) {
		tt.Errorf("%s: failed restore changed the replica", name)
	}
}

// DecodeSnapshotRejectsJunk: truncations, bad versions, dangling varints and
// trailing garbage fail the decode, and so do a collect-order entry for a
// round with no state and a CAND round whose own collect order differs from
// its collect-order map entry (nil and empty are the same order); a failed
// restore leaves the replica as it was.
func DecodeSnapshotRejectsJunk(tt *testing.T, r *protocol.BinaryRules) {
	cases := [][]byte{
		nil,
		{},
		{0x00},             // bad version
		{0x01},             // truncated after version
		{0x01, 0x80},       // dangling varint
		{0x01, 0x00, 0x80}, // dangling varint later
	}
	for i, b := range cases {
		if err := fresh(tt, r, 0).RestoreBytes(b); err == nil {
			tt.Errorf("case %d: decode accepted junk %v", i, b)
		}
	}
	p := afterSteps(tt, r, 3, 100, liar(r))[0]
	enc := p.SnapshotBytes()
	if err := p.RestoreBytes(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		tt.Error("decode accepted trailing garbage")
	}
	if !bytes.Equal(p.SnapshotBytes(), enc) {
		tt.Error("failed restore changed the replica")
	}

	// Every round with a collect-order entry has a state.
	refuses(tt, r, "order of a stateless round", round0{votes: []int{0, 3}, from: 2, orderRound: 1, order: []int{1}}.bytes(r),
		"round with no state")

	if r.AnnounceSet {
		return // the round state holds no copy of its order
	}
	for _, s := range []round0{
		{votes: []int{0, 3}, from: 2, order: []int{}, own: nil},
		{votes: []int{0, 3}, from: 2, order: nil, own: []int{}},
		{votes: []int{0, 3}, from: 2, collected1: true, order: []int{1}, own: []int{1}},
	} {
		if err := fresh(tt, r, 0).RestoreBytes(s.bytes(r)); err != nil {
			tt.Errorf("consistent collect order %v / %v: %v", s.order, s.own, err)
		}
	}
	for _, own := range [][]int{nil, {0}, {1, 0}, {1, 1}} {
		s := round0{votes: []int{0, 3}, from: 2, collected1: true, order: []int{1}, own: own}
		refuses(tt, r, "own collect order", s.bytes(r), "differs from its order entry")
	}
}

// DecodeSnapshotIsInjective is the regression net of the decoder hardening:
// a decoder that read any non-zero byte as true or ignored the unused
// round-flag bits decoded distinct inputs to one state. Every single-bit
// corruption of a valid snapshot must either be rejected or survive a
// re-encode unchanged.
func DecodeSnapshotIsInjective(tt *testing.T, r *protocol.BinaryRules) {
	for _, p := range afterSteps(tt, r, 5, 220, liar(r)) {
		enc := p.SnapshotBytes()
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				q := fresh(tt, r, p.ID())
				if q.RestoreBytes(mut) == nil && !bytes.Equal(q.SnapshotBytes(), mut) {
					tt.Fatalf("p%d: byte %d bit %d: accepted input re-encodes differently", p.ID(), i, bit)
				}
			}
		}
	}
}

// outsideSenderSnapshots are snapshots naming a sender outside [0, n) among
// the vote senders or the announcements; no replica can hold that state.
func outsideSenderSnapshots(r *protocol.BinaryRules) map[string][]byte {
	return map[string][]byte{
		"vote-sender-n":                round0{votes: []int{0, 4}, from: 1}.bytes(r),
		"vote-sender-negative":         round0{votes: []int{-1, 2}, from: 1}.bytes(r),
		"announcement-sender-n":        round0{votes: []int{0, 3}, from: 4}.bytes(r),
		"announcement-sender-negative": round0{votes: []int{0, 3}, from: -1}.bytes(r),
	}
}

// DecodeSnapshotRejectsOutsideSenders: a sender outside [0, n) in a round's
// vote sets or announcements fails the decode cleanly, and leaves the
// replica as it was.
func DecodeSnapshotRejectsOutsideSenders(tt *testing.T, r *protocol.BinaryRules) {
	if err := fresh(tt, r, 0).RestoreBytes(round0{votes: []int{0, 3}, from: 2}.bytes(r)); err != nil {
		tt.Fatalf("in-range control snapshot: %v", err)
	}
	for name, b := range outsideSenderSnapshots(r) {
		refuses(tt, r, name, b, "outside [0, 4)")
	}
}

// retiredMessageSnapshots are snapshots whose outbox message carries what
// the compact network.Message cannot hold, and which the message codec
// decoded before it: a kind name outside the table, a set list no encoder
// writes, a nonzero retired slot.
func retiredMessageSnapshots(r *protocol.BinaryRules) map[string][]byte {
	snap := func(m rawMsg) []byte { return round0{votes: []int{0, 3}, from: 2, sent: &m}.bytes(r) }
	return map[string][]byte{
		"unknown-kind":  snap(rawMsg{kind: "ZAP"}),
		"set-1-0":       snap(rawMsg{kind: "AUX", set: []int{1, 0}}),
		"set-0-0":       snap(rawMsg{kind: "AUX", set: []int{0, 0}}),
		"instance-slot": snap(rawMsg{kind: r.Vote.String(), instance: 1}),
		"proposer-slot": snap(rawMsg{kind: r.Vote.String(), proposer: 1}),
		"payload-slot":  snap(rawMsg{kind: r.Vote.String(), payload: "tx"}),
	}
}

// DecodeSnapshotRefusesRetiredMessageForms: a snapshot whose outbox holds a
// message the compact form cannot hold fails the decode and leaves the
// replica as it was; the same snapshot with a well-formed message restores.
func DecodeSnapshotRefusesRetiredMessageForms(tt *testing.T, r *protocol.BinaryRules) {
	control := round0{votes: []int{0, 3}, from: 2, sent: &rawMsg{kind: "AUX", set: []int{0, 1}}}
	if err := fresh(tt, r, 0).RestoreBytes(control.bytes(r)); err != nil {
		tt.Fatalf("well-formed outbox message: %v", err)
	}
	want := map[string]string{
		"unknown-kind": "unknown message kind", "set-1-0": "not canonical", "set-0-0": "not canonical",
		"instance-slot": "retired message slot", "proposer-slot": "retired message slot", "payload-slot": "retired message slot",
	}
	for name, b := range retiredMessageSnapshots(r) {
		refuses(tt, r, name, b, want[name])
	}
}

// FuzzSnapshotDecode: RestoreBytes must never panic, any bytes it accepts
// must re-encode byte-identically, and the restored replica must keep
// handling traffic. Seeds: the caller's testdata/fuzz/FuzzSnapshotDecode
// corpus, the outsideSenderSnapshots, live states and the
// retiredMessageSnapshots.
func FuzzSnapshotDecode(f *testing.F, r *protocol.BinaryRules) {
	f.Add([]byte{})
	f.Add([]byte{protocol.BinarySnapshotVersion})
	for _, b := range outsideSenderSnapshots(r) {
		f.Add(b)
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, p := range afterSteps(f, r, seed, int(seed)*60, silent) {
			f.Add(p.SnapshotBytes())
		}
	}
	for _, b := range retiredMessageSnapshots(r) {
		f.Add(b)
	}
	f.Fuzz(func(tt *testing.T, data []byte) {
		p := fresh(tt, r, 0)
		if p.RestoreBytes(data) != nil {
			return
		}
		if !bytes.Equal(p.SnapshotBytes(), data) {
			tt.Fatal("accepted input does not re-encode byte-identically")
		}
		for from := network.ProcID(1); from <= 3; from++ {
			p.Deliver(vote(r, from, p.Round(), 1), discard)
			p.Deliver(announce(r, from, p.Round(), 1), discard)
		}
		p.OnTick(0, discard)
	})
}

// FuzzMessageDecode: any record the shared message codec accepts is one WAL
// recovery may re-deliver, so a replica must survive its delivery whatever
// it carries (out-of-range rounds, values, malformed sets).
func FuzzMessageDecode(f *testing.F, r *protocol.BinaryRules) {
	f.Add([]byte{})
	f.Add(protocol.EncodeMessage(network.Message{From: 1, To: 2, Kind: r.Announce, Set: network.SetBoth}))
	f.Fuzz(func(tt *testing.T, data []byte) {
		m, err := protocol.DecodeMessage(data)
		if err != nil {
			return
		}
		p := fresh(tt, r, 0)
		p.Start(discard)
		p.Deliver(m, discard)
	})
}

// DeliverAllocs is the allocation gate on the delivery path: a vote from a
// sender not seen before, into a round whose state exists, allocates nothing
// (the sender sets are bitsets sized when the round is created). The echo
// threshold t+1 lies beyond the measured deliveries; the votes that follow
// them reach it exactly at the (t+1)-th sender, which shows every measured
// vote was counted.
func DeliverAllocs(tt *testing.T, r *protocol.BinaryRules) {
	const n, t = 1024, 341
	p := newReplica(tt, r, 0, 0, n, t, 4)
	p.Start(discard)
	from := network.ProcID(1)
	allocs := testing.AllocsPerRun(300, func() {
		p.Deliver(vote(r, from, 0, 1), discard)
		from++
	})
	if allocs != 0 {
		tt.Errorf("a %s from a new sender allocated %v times", r.Vote, allocs)
	}
	echoAt := network.ProcID(-1)
	for ; from <= t+1; from++ {
		p.Deliver(vote(r, from, 0, 1), func(m network.Message) {
			if m.Kind == r.Vote && m.Value == 1 && echoAt < 0 {
				echoAt = from
			}
		})
	}
	if echoAt != t+1 {
		tt.Errorf("%s-1 echo at sender %d, want %d: the measured deliveries were not all counted", r.Vote, echoAt, t+1)
	}
}

// DeliverIgnoredCreatesNoRound: a message Deliver ignores — an unknown kind,
// a vote of a value other than 0 and 1, an announcement whose field the rules
// read is malformed (a set that is empty or names another value, or a value
// other than 0 and 1), whether its other field is well formed or not —
// creates no round state, so it cannot grow the snapshot of a replica it
// never moved. Every round state is in the snapshot, so an unchanged
// snapshot means no round was created.
func DeliverIgnoredCreatesNoRound(tt *testing.T, r *protocol.BinaryRules) {
	const maxRounds = 12
	badValues := []int{-1, 2, 1 << 40}
	badSets := []network.ValueSet{0, network.SetOf(2), network.SetOf(0, 2), network.SetOf(-1, 1)}
	// Only the field the rules read is broken; the other one runs through
	// well-formed and malformed contents both.
	values, sets := append([]int{0, 1}, badValues...), badSets
	if !r.AnnounceSet {
		values, sets = badValues, append([]network.ValueSet{network.SetZero, network.SetOne, network.SetBoth}, badSets...)
	}
	p := newReplica(tt, r, 0, 0, 1024, 341, maxRounds)
	var sent []network.Message
	send := func(m network.Message) { sent = append(sent, m) }
	p.Start(send)
	before, out := p.SnapshotBytes(), len(sent)
	for round := 1; round <= maxRounds; round++ {
		p.Deliver(network.Message{From: 5, Round: round, Kind: network.MsgKind(200), Value: 1, Set: network.SetZero}, send)
	}
	for round := 1; round <= maxRounds; round++ {
		for _, v := range badValues {
			p.Deliver(network.Message{From: 5, Round: round, Kind: r.Vote, Value: v}, send)
		}
		for _, v := range values {
			for _, set := range sets {
				p.Deliver(network.Message{From: 5, Round: round, Kind: r.Announce, Value: v, Set: set}, send)
			}
		}
	}
	if !bytes.Equal(p.SnapshotBytes(), before) {
		tt.Error("ignored messages changed the snapshot")
	}
	if len(sent) != out {
		tt.Errorf("ignored messages triggered %d sends", len(sent)-out)
	}
}

// ConfigValidate is the configuration table of a rules value: the shared
// checks refuse the same configurations under every rules name, n <= 3t is
// refused exactly when the caller says the rules are resilient, and the
// constructors refuse what Validate refuses and a non-binary input.
func ConfigValidate(tt *testing.T, r *protocol.BinaryRules, resilient bool) {
	tooFew := ""
	if resilient {
		tooFew = r.Name + ": resilience requires n > 3t, got n=6 t=2"
	}
	for _, tc := range []struct {
		cfg  protocol.Config
		want string // "" = valid
	}{
		{protocol.Config{N: 0, T: 0, MaxRounds: 5}, r.Name + ": n must be positive, got 0"},
		{protocol.Config{N: 4, T: -1, MaxRounds: 5}, r.Name + ": t must be nonnegative, got -1"},
		{protocol.Config{N: 4, T: 1, MaxRounds: 0}, r.Name + ": MaxRounds must be positive, got 0"},
		{protocol.Config{N: 6, T: 2, MaxRounds: 5}, tooFew},
		{protocol.Config{N: 4, T: 1, MaxRounds: 5}, ""},
	} {
		err := r.Validate(tc.cfg)
		if tc.want == "" {
			if err != nil {
				tt.Errorf("%+v: %v", tc.cfg, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want {
			tt.Errorf("%+v: error %v, want %q", tc.cfg, err, tc.want)
		}
		if _, perr := r.Processes(tc.cfg, []int{0, 1}, protocol.AllIDs(4)); perr == nil || perr.Error() != tc.want {
			tt.Errorf("%+v: Processes error %v, want %q", tc.cfg, perr, tc.want)
		}
	}
	cfg := protocol.Config{N: 4, T: 1, MaxRounds: 5}
	if _, err := r.NewProcess(0, 2, cfg, protocol.AllIDs(4)); err == nil || !strings.Contains(err.Error(), "input must be binary") {
		tt.Errorf("non-binary input: error %v", err)
	}
	inputs := []int{1, 0, 1}
	procs, err := r.Processes(cfg, inputs, protocol.AllIDs(4))
	if err != nil {
		tt.Fatal(err)
	}
	for i, p := range procs {
		if p.ID() != network.ProcID(i) || p.Estimate() != inputs[i] {
			tt.Errorf("process %d has id %d and estimate %d", i, p.ID(), p.Estimate())
		}
	}
}
