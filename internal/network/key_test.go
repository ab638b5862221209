package network

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refKeyString and refFaultKey are the two string renderings Message.Key
// replaced — the bus's Message.KeyString and the fault plane's keyString —
// kept verbatim as the reference the comparable key is held against. Both
// are injective over the seven message kinds (a Kind containing their
// separators could fool them; the struct key compares Kind exactly).

func refKeyString(m Message) string {
	var b strings.Builder
	b.Grow(32 + len(m.Payload) + 4*len(m.Set))
	b.WriteString(strconv.Itoa(int(m.From)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(m.To)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Round))
	b.WriteByte('|')
	b.WriteString(string(m.Kind))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Value))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(m.Proposer)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Instance))
	b.WriteByte('|')
	for _, v := range m.Set {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	// Length-prefixed so a Payload containing separators stays injective.
	b.WriteString(strconv.Itoa(len(m.Payload)))
	b.WriteByte(':')
	b.WriteString(m.Payload)
	return b.String()
}

func refFaultKey(m Message) string {
	return fmt.Sprintf("%d>%d %s r%d v%d i%d p%d %q %v",
		m.From, m.To, m.Kind, m.Round, m.Value, m.Instance, m.Proposer, m.Payload, m.Set)
}

var allKinds = []MsgKind{MsgBV, MsgAux, MsgProp, MsgEcho, MsgReady, MsgVote, MsgCand}

// identityChecker holds two messages against the three identities and the
// bus's content id, and tallies which cases it has seen. Over every message
// it was handed it also keeps both directions of the MsgKey <-> (id, To)
// correspondence, which must stay a bijection: the fault plane's budgets
// count against (id, To) in place of MsgKey.
type identityChecker struct {
	bus                        *busStore
	same, differ, sameButForTo int
	byKey                      map[MsgKey]copyID
	byCopy                     map[copyID]MsgKey
}

type copyID struct {
	id uint32
	to ProcID
}

func newIdentityChecker() *identityChecker {
	return &identityChecker{bus: newBusStore([]ProcID{0}, BusOptions{}),
		byKey: map[MsgKey]copyID{}, byCopy: map[copyID]MsgKey{}}
}

// copyOf interns m and checks it against everything seen so far: one key,
// one (id, To) and back, and the table rebuilds m's content.
func (c *identityChecker) copyOf(t *testing.T, m Message) copyID {
	t.Helper()
	cp, k := copyID{c.bus.intern(&m), m.To}, m.Key()
	if prev, ok := c.byKey[k]; ok && prev != cp {
		t.Fatalf("one key, two copy ids %v and %v: %#v", prev, cp, m)
	}
	if prev, ok := c.byCopy[cp]; ok && prev != k {
		t.Fatalf("copy id %v names two keys %+v and %+v: %#v", cp, prev, k, m)
	}
	c.byKey[k], c.byCopy[cp] = cp, k
	// An entry's destination is a queue index, and this bus's one queue is
	// peer 0: the table is checked for the content and the Seq, and To is
	// put back as the copy id carries it.
	got := c.bus.message(&busEntry{id: cp.id, seq: m.Seq})
	got.To = m.To
	if got.Key() != k || got.Seq != m.Seq || refKeyString(got) != refKeyString(m) {
		t.Fatalf("content table rebuilt %#v from %#v", got, m)
	}
	return cp
}

func (c *identityChecker) check(t *testing.T, a, b Message) {
	t.Helper()
	key := a.Key() == b.Key()
	if ref := refKeyString(a) == refKeyString(b); key != ref {
		t.Fatalf("Key equal = %v but KeyString equal = %v\na %#v\nb %#v", key, ref, a, b)
	}
	if ref := refFaultKey(a) == refFaultKey(b); key != ref {
		t.Fatalf("Key equal = %v but faults.keyString equal = %v\na %#v\nb %#v", key, ref, a, b)
	}
	// The content id forgets the destination and nothing else; with the
	// destination put back it is the key. Interning b right after a takes
	// the last-send shortcut when they share content, and a again after b
	// takes the map (or the shortcut, if b's content is a's).
	a0, b0 := a, b
	a0.To, b0.To = 0, 0
	ca, cb := c.copyOf(t, a), c.copyOf(t, b)
	if again := c.copyOf(t, a); again != ca {
		t.Fatalf("a interned as %v, then %v after b", ca, again)
	}
	id, ref := ca.id == cb.id, refKeyString(a0) == refKeyString(b0)
	if id != ref {
		t.Fatalf("content ids equal = %v but contents minus To equal = %v\na %#v\nb %#v", id, ref, a, b)
	}
	if (ca == cb) != key {
		t.Fatalf("(id, To) equal = %v but Key equal = %v\na %#v\nb %#v", ca == cb, key, a, b)
	}
	switch {
	case key:
		c.same++
	case id:
		c.sameButForTo++
	default:
		c.differ++
	}
}

// TestMsgIdentityMatchesStringKeys is the seeded property test: over
// generated near-identical pairs the comparable key, both retired string keys
// and (destination aside) the interned id agree on which messages are the
// same message.
func TestMsgIdentityMatchesStringKeys(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	ints := []int{0, 1, 2, 12, -1, -12, 1 << 33, -(1 << 40), 1<<32 + 1}
	sets := [][]int{nil, {}, {0}, {1}, {0, 1}, {1, 0}, {0, 0}, {1, 2}, {12}, {2, 1}, {1, 1, 2},
		{10, 100}, {101, 0}, {1, 0, 10}, {-1}, {1 << 33, 0}}
	payloads := []string{"", "a", "a|b", "a|", "|a", "1:a", "a:b", "a,b", `"a"`, `a"`, "\x00", "a\x00", "[1 2]", "a b"}
	pick := func() int { return ints[r.Intn(len(ints))] }
	gen := func() Message {
		return Message{
			From: ProcID(pick()), To: ProcID(pick()), Round: pick(), Kind: allKinds[r.Intn(len(allKinds))],
			Value: pick(), Set: sets[r.Intn(len(sets))], Instance: pick(), Proposer: ProcID(pick()),
			Payload: payloads[r.Intn(len(payloads))], Seq: r.Int63(),
		}
	}
	c := newIdentityChecker()
	for i := 0; i < 20_000; i++ {
		a := gen()
		// b is a with each field redrawn one time in eight, so about a third
		// of the pairs are the same message and most others differ in one
		// field only. Seq always differs and must never matter.
		b, other := a, gen()
		b.Seq = other.Seq
		for f := 0; f < 9; f++ {
			if r.Intn(8) != 0 {
				continue
			}
			switch f {
			case 0:
				b.From = other.From
			case 1:
				b.To = other.To
			case 2:
				b.Round = other.Round
			case 3:
				b.Kind = other.Kind
			case 4:
				b.Value = other.Value
			case 5:
				b.Set = other.Set
			case 6:
				b.Instance = other.Instance
			case 7:
				b.Proposer = other.Proposer
			case 8:
				b.Payload = other.Payload
			}
		}
		c.check(t, a, b)
	}
	if c.same < 2000 || c.differ < 2000 || c.sameButForTo < 200 {
		t.Errorf("generator lopsided: %d equal pairs, %d equal but for To, %d different", c.same, c.sameButForTo, c.differ)
	}
	for i, a := range nearCollisions {
		for _, b := range nearCollisions[i:] {
			c.check(t, a, b)
		}
	}
}

// appendFuzzMsg and readFuzzMsg are the fuzz target's message encoding: kind
// index, six varint fields, a set (length byte, 0xff = nil, then varints), a
// length-prefixed payload. The reader accepts any bytes — a short input reads
// as zeros — so the fuzzer explores messages, not parse errors.
func appendFuzzMsg(b []byte, m Message) []byte {
	for i, k := range allKinds {
		if k == m.Kind {
			b = append(b, byte(i))
		}
	}
	for _, v := range []int{int(m.From), int(m.To), m.Round, m.Value, m.Instance, int(m.Proposer)} {
		b = binary.AppendVarint(b, int64(v))
	}
	if m.Set == nil {
		b = append(b, 0xff)
	} else {
		b = append(b, byte(len(m.Set)))
		for _, v := range m.Set {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	b = append(b, byte(len(m.Payload)))
	return append(b, m.Payload...)
}

func readFuzzMsg(data []byte) (Message, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	varint := func() int {
		v, n := binary.Varint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return int(v)
	}
	m := Message{Kind: allKinds[int(next())%len(allKinds)]}
	m.From, m.To, m.Round = ProcID(varint()), ProcID(varint()), varint()
	m.Value, m.Instance, m.Proposer = varint(), varint(), ProcID(varint())
	if n := next(); n != 0xff {
		m.Set = make([]int, n%8)
		for i := range m.Set {
			m.Set[i] = varint()
		}
	}
	n := min(int(next()), len(data))
	m.Payload, data = string(data[:n]), data[n:]
	return m, data
}

// FuzzMsgIdentity asserts the same three-way equivalence on two messages
// built from the fuzz input.
func FuzzMsgIdentity(f *testing.F) {
	for i, a := range nearCollisions {
		f.Add(appendFuzzMsg(appendFuzzMsg(nil, a), a))
		if i > 0 {
			f.Add(appendFuzzMsg(appendFuzzMsg(nil, nearCollisions[i-1]), a))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := readFuzzMsg(data)
		b, _ := readFuzzMsg(rest)
		newIdentityChecker().check(t, a, b)
	})
}

// TestFuzzMsgRoundTrip keeps the fuzz seeds honest: what appendFuzzMsg writes
// is what readFuzzMsg reads.
func TestFuzzMsgRoundTrip(t *testing.T) {
	for _, m := range nearCollisions {
		got, rest := readFuzzMsg(appendFuzzMsg(nil, m))
		if len(rest) != 0 || refKeyString(got) != refKeyString(m) || (got.Set == nil) != (m.Set == nil) {
			t.Errorf("round trip of %#v gave %#v (%d bytes left)", m, got, len(rest))
		}
	}
}

// TestContentIDSets pins the content id on the sets that make identity
// subtle: a nil and an empty Set are one content, a Byzantine [1,0] or [0,0]
// is not [0,1] or [0], and the table keeps its own copy of the first Set it
// saw — interned through the last-send shortcut or through the map alike.
func TestContentIDSets(t *testing.T) {
	c := newIdentityChecker()
	aux := func(to ProcID, set []int) Message { return Message{From: 3, To: to, Kind: MsgAux, Round: 2, Set: set} }
	template := []int{0, 1}
	ids := map[string]copyID{}
	for _, tc := range []struct {
		name string
		m    Message
	}{
		{"nil", aux(1, nil)}, {"empty", aux(1, []int{})}, {"nil to 2", aux(2, nil)},
		{"01", aux(1, template)}, {"10", aux(1, []int{1, 0})}, {"01 again", aux(1, []int{0, 1})},
		{"0", aux(1, []int{0})}, {"00", aux(1, []int{0, 0})}, {"01 to 2", aux(2, template)},
	} {
		ids[tc.name] = c.copyOf(t, tc.m)
	}
	same := [][2]string{{"nil", "empty"}, {"01", "01 again"}}
	differ := [][2]string{{"nil", "nil to 2"}, {"01", "10"}, {"0", "00"}, {"01", "01 to 2"}, {"nil", "0"}}
	for _, p := range same {
		if ids[p[0]] != ids[p[1]] {
			t.Errorf("%s and %s: copy ids %v and %v, want one", p[0], p[1], ids[p[0]], ids[p[1]])
		}
	}
	for _, p := range differ {
		if ids[p[0]] == ids[p[1]] {
			t.Errorf("%s and %s share copy id %v", p[0], p[1], ids[p[0]])
		}
	}
	if ids["nil"].id != ids["nil to 2"].id || ids["01"].id != ids["01 to 2"].id {
		t.Error("the content id must not depend on the destination")
	}
	if got := c.bus.contents[ids["empty"].id].Set; got != nil {
		t.Errorf("empty Set stored as %#v, want nil", got)
	}
	template[0] = 9 // the sender reuses its literal: the table must not see it
	if got := c.bus.contents[ids["01"].id].Set; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("interned Set = %v after the sender mutated its template, want [0 1]", got)
	}
}
