package network

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refKeyString and refFaultKey are the two string renderings Message.Key
// replaced — the bus's Message.KeyString and the fault plane's keyString —
// kept as the reference the comparable key is held against, over the
// message's six content fields. Both render the Set as its canonical list.

func refKeyString(m Message) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(m.From)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(m.To)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Round))
	b.WriteByte('|')
	b.WriteString(m.Kind.String())
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Value))
	b.WriteByte('|')
	for _, v := range m.Set.Values() {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

func refFaultKey(m Message) string {
	return fmt.Sprintf("%d>%d %s r%d v%d %v", m.From, m.To, m.Kind, m.Round, m.Value, m.Set.Values())
}

// refSetKey is the mask identity of a value list as a receiver reads it
// (protocol.setMask): which of 0 and 1 it names, and whether it names
// anything else. Order and repeats do not count.
func refSetKey(list []int) string {
	var zero, one, other bool
	for _, v := range list {
		switch v {
		case 0:
			zero = true
		case 1:
			one = true
		default:
			other = true
		}
	}
	return fmt.Sprint(zero, one, other)
}

// allKinds are the named kinds, the unnamed kind 0 and one kind outside the
// name table.
var allKinds = []MsgKind{0, MsgBV, MsgAux, MsgVote, MsgCand, MsgKind(9)}

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
	if got != m {
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

// valueLists are the lists a Byzantine sender may name in an AUX: orders,
// repeats and values other than 0 and 1 among them.
var valueLists = [][]int{nil, {}, {0}, {1}, {0, 1}, {1, 0}, {0, 0}, {1, 2}, {12}, {2, 1}, {1, 1, 2},
	{10, 100}, {101, 0}, {1, 0, 10}, {-1}, {1 << 33, 0}}

// TestMsgIdentityMatchesStringKeys is the seeded property test: over
// generated near-identical pairs the comparable key, both retired string keys
// and (destination aside) the interned id agree on which messages are the
// same message.
func TestMsgIdentityMatchesStringKeys(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	ints := []int{0, 1, 2, 12, -1, -12, 1 << 33, -(1 << 40), 1<<32 + 1}
	pick := func() int { return ints[r.Intn(len(ints))] }
	gen := func() Message {
		return Message{
			From: ProcID(pick()), To: ProcID(pick()), Round: pick(), Kind: allKinds[r.Intn(len(allKinds))],
			Value: pick(), Set: SetOf(valueLists[r.Intn(len(valueLists))]...), Seq: r.Int63(),
		}
	}
	c := newIdentityChecker()
	for i := 0; i < 20_000; i++ {
		a := gen()
		// b is a with each field redrawn one time in six, so about a third
		// of the pairs are the same message and most others differ in one
		// field only. Seq always differs and must never matter.
		b, other := a, gen()
		b.Seq = other.Seq
		for f := 0; f < 6; f++ {
			if r.Intn(6) != 0 {
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

// TestSetOfIsMaskIdentity pins the list-to-set map: two lists give one
// ValueSet exactly when a receiver reads them as one announcement, and the
// canonical list of a set is a list of that set.
func TestSetOfIsMaskIdentity(t *testing.T) {
	for _, a := range valueLists {
		for _, b := range valueLists {
			if same := SetOf(a...) == SetOf(b...); same != (refSetKey(a) == refSetKey(b)) {
				t.Errorf("SetOf(%v) == SetOf(%v) is %v, mask identity says otherwise", a, b, same)
			}
		}
		s := SetOf(a...)
		if back := SetOf(s.Values()...); back != s {
			t.Errorf("SetOf(%v) = %v, but its canonical list %v gives %v", a, s, s.Values(), back)
		}
		for v := -1; v <= 2; v++ {
			if s.Has(v) != ((v == 0 || v == 1) && slices.Contains(a, v)) {
				t.Errorf("SetOf(%v).Has(%d) = %v", a, v, s.Has(v))
			}
		}
	}
	if got := SetBoth.Values(); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("SetBoth.Values() = %v", got)
	}
	if got := ValueSet(0).Values(); got != nil {
		t.Errorf("empty set's canonical list = %#v, want nil", got)
	}
}

// appendFuzzMsg and readFuzzMsg are the fuzz target's message encoding: kind
// index, four varint fields, a value list (length byte, then varints). The
// reader accepts any bytes — a short input reads as zeros — so the fuzzer
// explores messages, not parse errors.
func appendFuzzMsg(b []byte, m Message) []byte {
	for i, k := range allKinds {
		if k == m.Kind {
			b = append(b, byte(i))
		}
	}
	for _, v := range []int{int(m.From), int(m.To), m.Round, m.Value} {
		b = binary.AppendVarint(b, int64(v))
	}
	vals := m.Set.Values()
	b = append(b, byte(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
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
	m.From, m.To, m.Round, m.Value = ProcID(varint()), ProcID(varint()), varint(), varint()
	list := make([]int, next()%8)
	for i := range list {
		list[i] = varint()
	}
	m.Set = SetOf(list...)
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
		if len(rest) != 0 || got != m {
			t.Errorf("round trip of %#v gave %#v (%d bytes left)", m, got, len(rest))
		}
	}
}

// TestContentIDSets pins the content id on the sets that make identity
// subtle: a Byzantine [1,0] or [0,0] is the [0,1] or [0] a receiver reads it
// as, every list naming only other values is one malformed set, and the
// content id ignores the destination — interned through the last-send
// shortcut or through the map alike.
func TestContentIDSets(t *testing.T) {
	c := newIdentityChecker()
	aux := func(to ProcID, list ...int) Message {
		return Message{From: 3, To: to, Kind: MsgAux, Round: 2, Set: SetOf(list...)}
	}
	ids := map[string]copyID{}
	for _, tc := range []struct {
		name string
		m    Message
	}{
		{"empty", aux(1)}, {"empty to 2", aux(2)},
		{"01", aux(1, 0, 1)}, {"10", aux(1, 1, 0)}, {"01 again", aux(1, 0, 1)},
		{"0", aux(1, 0)}, {"00", aux(1, 0, 0)}, {"01 to 2", aux(2, 0, 1)},
		{"2", aux(1, 2)}, {"12", aux(1, 12)}, {"02", aux(1, 0, 2)},
	} {
		ids[tc.name] = c.copyOf(t, tc.m)
	}
	same := [][2]string{{"01", "01 again"}, {"01", "10"}, {"0", "00"}, {"2", "12"}}
	differ := [][2]string{{"empty", "empty to 2"}, {"01", "01 to 2"}, {"empty", "0"}, {"2", "02"}, {"0", "02"}}
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
	if ids["empty"].id != ids["empty to 2"].id || ids["01"].id != ids["01 to 2"].id {
		t.Error("the content id must not depend on the destination")
	}
	if got := c.bus.contents[ids["10"].id].Set; got != SetBoth {
		t.Errorf("[1,0] interned as %v, want SetBoth", got)
	}
}
