package protocol

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/network"
)

// This file is the canonical byte encoding every protocol front-end shares:
// varint primitives, the network.Message layout, and the versioned envelope
// around a replica snapshot. The encoding is *canonical* in both directions.
// Encoding sorts map keys, so two state-identical snapshots always yield the
// same bytes — what lets the torture harness assert "recovered state equals a
// fresh replay of the log" by comparing byte strings, and what makes
// SnapshotBytes a usable state fingerprint. Decoding accepts only bytes an
// encoder emits (minimal varints, 0/1 booleans, no unknown flag bits,
// strictly ascending keys), so decode ok ⇒ re-encode is byte-identical and
// no two distinct inputs collapse into one state.

// maxDecodeLen caps every decoded length field so a hostile (or fuzzed)
// input cannot demand gigabytes.
const maxDecodeLen = 1 << 20

// Enc appends canonical encodings to a byte slice.
type Enc struct{ b []byte }

// NewEnc starts a snapshot envelope: one layout-version byte, then the
// protocol's field-by-field body.
func NewEnc(version byte) *Enc {
	e := &Enc{b: make([]byte, 0, 256)}
	e.b = append(e.b, version)
	return e
}

// Bytes returns everything encoded so far.
func (e *Enc) Bytes() []byte { return e.b }

func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *Enc) Int(v int)        { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *Enc) Bool(v bool)      { e.Flags(v) }

// Flags bit-packs up to eight booleans into one byte, first flag in bit 0.
func (e *Enc) Flags(flags ...bool) {
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	e.b = append(e.b, b)
}

func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *Enc) Ints(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
}

// ProcSet writes a sender set as Ints writes its ids in ascending order.
func (e *Enc) ProcSet(set SenderSet) {
	e.Uvarint(uint64(set.Len()))
	for w, word := range set.words {
		for ; word != 0; word &= word - 1 {
			e.Int(w*64 + bits.TrailingZeros64(word))
		}
	}
}

// EncMap writes an int-keyed map (per-round state) in ascending key order;
// enc writes one value and is told its key.
func EncMap[V any](e *Enc, m map[int]V, enc func(e *Enc, key int, v V)) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Int(k)
		enc(e, k, m[k])
	}
}

// Message writes one message.
func (e *Enc) Message(m network.Message) {
	e.Int(int(m.From))
	e.Int(int(m.To))
	e.Int(m.Round)
	e.Str(string(m.Kind))
	e.Int(m.Value)
	e.Ints(m.Set)
	e.Int(m.Instance)
	e.Int(int(m.Proposer))
	e.Str(m.Payload)
	// Seq is per-copy fault-layer metadata, not message content: it is
	// deliberately not persisted, so retransmitted copies of a recovered
	// outbox re-enter the network unstamped, exactly like fresh sends.
}

// Messages writes a message list (an outbox) in order.
func (e *Enc) Messages(ms []network.Message) {
	e.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.Message(m)
	}
}

// Dec reads what Enc wrote. The first failure sticks: every later read
// returns a zero value, so a body decoder reads field after field and checks
// once, through Err or Finish. It never panics on malformed input.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec opens a snapshot envelope, failing on empty input or a layout
// version other than the one the caller's body decoder understands.
func NewDec(b []byte, version byte) *Dec {
	d := &Dec{b: b, off: 1}
	switch {
	case len(b) == 0:
		d.Fail("empty snapshot")
	case b[0] != version:
		d.Fail("unknown snapshot version %d", b[0])
	}
	return d
}

// Fail records a decode error unless one is already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: decode: "+format, args...)
	}
}

// Err is the first recorded failure.
func (d *Dec) Err() error { return d.err }

// Finish closes a decode: the first recorded failure, or an error if input
// remains after the last field of the named object.
func (d *Dec) Finish(what string) error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes after %s", len(d.b)-d.off, what)
	}
	return d.err
}

func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad varint at %d", d.off)
		return 0
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		d.Fail("non-minimal varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint (the layout of binary.AppendVarint).
func (d *Dec) Int() int {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return int(x)
}

// Len reads a length field, capped at maxDecodeLen.
func (d *Dec) Len() int {
	v := d.Uvarint()
	if v > maxDecodeLen {
		d.Fail("length %d exceeds cap", v)
		return 0
	}
	return int(v)
}

func (d *Dec) Bool() (v bool) {
	d.Flags(&v)
	return v
}

// Flags unpacks what Enc.Flags packed; a set bit beyond the named flags is
// an error, not ignored.
func (d *Dec) Flags(flags ...*bool) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.b) {
		d.Fail("flags past end")
		return
	}
	b := d.b[d.off]
	if b>>len(flags) != 0 {
		d.Fail("unknown flag bits %#x at %d", b, d.off)
		return
	}
	d.off++
	for i, f := range flags {
		*f = b&(1<<i) != 0
	}
}

func (d *Dec) Str() string {
	n := d.Len()
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.b) {
		d.Fail("string of %d past end", n)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *Dec) Ints() []int {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		out = append(out, d.Int())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// ProcSet reads a sender set over [0, n), rejecting ids outside it and ids
// that do not strictly ascend (duplicates included); what names the set in
// the error.
func (d *Dec) ProcSet(what string, n int) SenderSet {
	set := NewSenderSet(n)
	count := d.Len()
	for i, prev := 0, -1; i < count && d.err == nil; i++ {
		id := d.Int()
		switch {
		case d.err != nil:
		case id < 0 || id >= n:
			d.Fail("%s %d outside [0, %d)", what, id, n)
		case id <= prev:
			d.Fail("%s %d out of order", what, id)
		default:
			set.Add(network.ProcID(id))
			prev = id
		}
	}
	return set
}

// DecMap reads what EncMap wrote, rejecting keys that do not strictly
// ascend (duplicates included); what names the key in the error, and dec
// reads one value and is told its key.
func DecMap[V any](d *Dec, what string, dec func(d *Dec, key int) V) map[int]V {
	m := map[int]V{}
	n := d.Len()
	for i, prev := 0, 0; i < n && d.err == nil; i++ {
		k := d.Int()
		v := dec(d, k)
		if d.err != nil {
			break
		}
		if i > 0 && k <= prev {
			d.Fail("%s %d out of order", what, k)
			break
		}
		m[k], prev = v, k
	}
	return m
}

// Message reads one message.
func (d *Dec) Message() network.Message {
	var m network.Message
	m.From = network.ProcID(d.Int())
	m.To = network.ProcID(d.Int())
	m.Round = d.Int()
	m.Kind = network.MsgKind(d.Str())
	m.Value = d.Int()
	m.Set = d.Ints()
	m.Instance = d.Int()
	m.Proposer = network.ProcID(d.Int())
	m.Payload = d.Str()
	return m
}

// Messages reads a message list.
func (d *Dec) Messages() []network.Message {
	var ms []network.Message
	n := d.Len()
	for i := 0; i < n && d.err == nil; i++ {
		ms = append(ms, d.Message())
	}
	return ms
}

// EncodeMessage renders one message in the canonical form — the WAL record
// of a durable replica.
func EncodeMessage(m network.Message) []byte {
	var e Enc
	e.Message(m)
	return e.b
}

// DecodeMessage parses a message previously rendered by EncodeMessage.
func DecodeMessage(b []byte) (network.Message, error) {
	d := &Dec{b: b}
	m := d.Message()
	if err := d.Finish("message"); err != nil {
		return network.Message{}, err
	}
	return m, nil
}
