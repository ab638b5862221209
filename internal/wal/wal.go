package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Record frame: a 4-byte little-endian payload length, a 4-byte CRC32C
// (Castagnoli) of the payload, then the payload. The frame is what makes
// every storage fault *detectable*: a torn tail fails to parse, a flipped
// byte fails the checksum, and recovery never silently accepts either.
const frameHeader = 8

// MaxRecord bounds one record's payload. A parsed length beyond it cannot
// come from a legitimate append, so it is classified as corruption rather
// than a torn tail.
const MaxRecord = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a log that cannot be recovered by the torn-tail rule:
// a checksum mismatch or structural damage *before* the durable tail. A
// replica holding such a log must be quarantined — its persisted state can
// no longer be trusted — and re-seeded by state transfer.
var ErrCorrupt = errors.New("wal: corrupt log")

// SyncMode is the fsync discipline.
type SyncMode int

const (
	// SyncEachAppend fsyncs after every record — the synchronous-persistence
	// regime protocol.Replica requires for crash-recovery safety (default).
	SyncEachAppend SyncMode = iota
	// SyncNever leaves syncing to the caller (or to nobody: the unsafe
	// regime the torture harness budgets as Byzantine).
	SyncNever
)

// Options configures a Log.
type Options struct {
	// FS is the filesystem (default OSFS).
	FS FS
	// Dir holds the log's segment and snapshot files.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 64 KiB).
	SegmentBytes int
	// Sync selects the fsync discipline (default SyncEachAppend).
	Sync SyncMode
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 10
	}
	return o
}

// Recovery reports what Open reconstructed from disk.
type Recovery struct {
	// SnapshotIndex is the record index the snapshot covers (0 = none).
	SnapshotIndex int
	// Snapshot is the snapshot payload, when present.
	Snapshot []byte
	// Records are the payloads with indices SnapshotIndex+1 .. NextIndex-1.
	Records [][]byte
	// NextIndex is the index the next Append receives (records are 1-based).
	NextIndex int
	// TornBytes counts bytes discarded by the torn-tail truncation rule
	// (crash artifacts at the durable tail, including a torn trailing
	// snapshot file).
	TornBytes int
	// Accepted maps each file read during recovery to the [start,end) byte
	// ranges of the frames recovery actually trusted. The torture oracle
	// checks injected bit flips against these ranges: a flip inside an
	// accepted range would mean a checksum was silently bypassed.
	Accepted map[string][][2]int
}

// Log is an append-only segmented record log.
type Log struct {
	opts Options

	nextIndex int
	segments  []segMeta
	snapIndex int // highest durable snapshot index

	cur      File
	curCount int
	curSize  int
	hasSnap  bool
	broken   error
}

type segMeta struct {
	name  string
	first int
	count int
}

func segName(dir string, first int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016d.wseg", first))
}

func snapName(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.wsnap", index))
}

func parseName(name string) (kind string, index int, ok bool) {
	var n int
	if c, err := fmt.Sscanf(name, "seg-%d.wseg", &n); err == nil && c == 1 {
		return "seg", n, true
	}
	if c, err := fmt.Sscanf(name, "snap-%d.wsnap", &n); err == nil && c == 1 {
		return "snap", n, true
	}
	return "", 0, false
}

// frame renders one record.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	return buf
}

// FrameRecord renders payload as one standalone CRC-framed record — the
// WAL's on-disk framing (length prefix + Castagnoli checksum) for callers
// that want torn/corrupt detection on single-record side files without a
// full Log.
func FrameRecord(payload []byte) []byte { return frame(payload) }

// ParseRecord decodes a file produced by FrameRecord. Anything other than
// exactly one intact record — truncation, checksum mismatch, trailing bytes
// — reports an error wrapping ErrCorrupt.
func ParseRecord(data []byte) ([]byte, error) {
	payloads, _, _, torn, err := parseFrames(data)
	if err != nil {
		return nil, err
	}
	if torn || len(payloads) != 1 {
		return nil, fmt.Errorf("%w: expected exactly 1 intact record, got %d (torn=%v)", ErrCorrupt, len(payloads), torn)
	}
	return payloads[0], nil
}

// parseFrames walks data record by record. It returns the payloads, their
// frame byte ranges, and how the walk ended: clean EOF, a torn tail
// (truncated header or payload at EOF — the discardable crash artifact), or
// corruption (impossible length or checksum mismatch with the full frame
// present).
func parseFrames(data []byte) (payloads [][]byte, ranges [][2]int, consumed int, torn bool, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeader {
			return payloads, ranges, off, true, nil
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if length > MaxRecord {
			return payloads, ranges, off, false, fmt.Errorf("%w: impossible record length %d at offset %d", ErrCorrupt, length, off)
		}
		if off+frameHeader+length > len(data) {
			return payloads, ranges, off, true, nil
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.Checksum(payload, castagnoli) != want {
			return payloads, ranges, off, false, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		ranges = append(ranges, [2]int{off, off + frameHeader + length})
		off += frameHeader + length
	}
	return payloads, ranges, off, false, nil
}

// Open recovers the log in dir and returns a Log positioned to append after
// the last durable record. Unrecoverable damage yields an error wrapping
// ErrCorrupt; the torn-tail rule (truncate the unparseable durable tail of
// the *last* segment) is applied silently and reported in the Recovery.
func Open(opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: no directory")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var segFirsts, snapIndices []int
	for _, name := range names {
		kind, idx, ok := parseName(name)
		if !ok {
			continue
		}
		switch kind {
		case "seg":
			segFirsts = append(segFirsts, idx)
		case "snap":
			snapIndices = append(snapIndices, idx)
		}
	}
	sort.Ints(segFirsts)
	sort.Ints(snapIndices)

	rec := &Recovery{Accepted: map[string][][2]int{}}

	// Newest intact snapshot wins. A torn trailing snapshot is a crash
	// artifact of SaveSnapshot (which syncs the snapshot before removing
	// anything) and is discarded; a checksum mismatch is rot.
	for i := len(snapIndices) - 1; i >= 0; i-- {
		name := snapName(opts.Dir, snapIndices[i])
		data, err := opts.FS.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		payloads, ranges, consumed, torn, perr := parseFrames(data)
		if perr != nil {
			return nil, nil, fmt.Errorf("snapshot %s: %w", name, perr)
		}
		if torn && len(payloads) == 0 {
			rec.TornBytes += len(data) - consumed
			continue
		}
		if len(payloads) != 1 || torn {
			return nil, nil, fmt.Errorf("%w: snapshot %s has %d records (torn=%v)", ErrCorrupt, name, len(payloads), torn)
		}
		rec.SnapshotIndex = snapIndices[i]
		rec.Snapshot = payloads[0]
		rec.Accepted[name] = ranges
		break
	}

	l := &Log{opts: opts, snapIndex: rec.SnapshotIndex, hasSnap: rec.Snapshot != nil}
	next := rec.SnapshotIndex + 1
	for _, first := range segFirsts {
		name := segName(opts.Dir, first)
		data, err := opts.FS.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		payloads, ranges, consumed, torn, perr := parseFrames(data)
		if perr != nil {
			return nil, nil, fmt.Errorf("segment %s: %w", name, perr)
		}
		if torn {
			rec.TornBytes += len(data) - consumed
		}
		l.segments = append(l.segments, segMeta{name: name, first: first, count: len(payloads)})
		if first+len(payloads)-1 < next-1 {
			// Entirely covered by the snapshot: compaction leftovers, kept
			// only so the next SaveSnapshot removes the file.
			continue
		}
		if first > next {
			// A gap: records next..first-1 were durable once (a newer
			// segment exists) but are gone now. A torn tail is only ever the
			// single in-flight record, so this is damage, not a crash.
			return nil, nil, fmt.Errorf("%w: missing records %d..%d before %s", ErrCorrupt, next, first-1, name)
		}
		for k, p := range payloads {
			idx := first + k
			if idx < next {
				continue // covered by the snapshot
			}
			rec.Records = append(rec.Records, p)
			rec.Accepted[name] = append(rec.Accepted[name], ranges[k])
			next++
		}
	}
	rec.NextIndex = next
	l.nextIndex = next
	return l, rec, nil
}

// rotate closes the active segment and starts a new one at nextIndex.
func (l *Log) rotate() error {
	if l.cur != nil {
		// Unsynced appends may only ever live in the active segment's tail:
		// Sync() reaches just the current file, so anything left unsynced in
		// a rotated-away segment could never be made durable again — and a
		// crash would tear the *middle* of the log (unrecoverable damage
		// under the torn-tail rule), not its end. Sync before letting go.
		if err := l.cur.Sync(); err != nil {
			return err
		}
		obsFsyncs.Inc()
		if err := l.cur.Close(); err != nil {
			return err
		}
	}
	name := segName(l.opts.Dir, l.nextIndex)
	// Anything already at that name is a torn artifact: a crash tore the
	// segment's very first frame, so recovery accepted zero records from it
	// and nextIndex still points here. Appending after the torn bytes would
	// corrupt the log; replace the file instead.
	if err := l.opts.FS.Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Recovery tracks the torn artifact in l.segments (so compaction would
	// delete the file); now that this rotation owns the name, drop the stale
	// entry or SaveSnapshot would remove it twice. It can only be last:
	// segments are index-ordered and the artifact sits at nextIndex.
	if n := len(l.segments); n > 0 && l.segments[n-1].name == name {
		l.segments = l.segments[:n-1]
	}
	f, err := l.opts.FS.OpenAppend(name)
	if err != nil {
		return err
	}
	l.cur, l.curCount, l.curSize = f, 0, 0
	l.segments = append(l.segments, segMeta{name: name, first: l.nextIndex})
	obsRotations.Inc()
	return nil
}

// Append writes one record, honoring the fsync discipline and rotating
// segments. After any write error the log refuses further appends: a replica
// whose persistence failed mid-record must crash, not continue on top of an
// indeterminate tail.
func (l *Log) Append(payload []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	if l.cur == nil || l.curSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.broken = err
			return err
		}
	}
	buf := frame(payload)
	if _, err := l.cur.Write(buf); err != nil {
		l.broken = err
		return err
	}
	l.curSize += len(buf)
	l.curCount++
	l.segments[len(l.segments)-1].count = l.curCount
	if l.opts.Sync == SyncEachAppend {
		if err := l.cur.Sync(); err != nil {
			l.broken = err
			return err
		}
		obsFsyncs.Inc()
	}
	l.nextIndex++
	obsAppends.Inc()
	return nil
}

// Sync flushes the active segment (for SyncNever callers picking their own
// boundaries).
func (l *Log) Sync() error {
	if l.broken != nil {
		return l.broken
	}
	if l.cur == nil {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		l.broken = err
		return err
	}
	obsFsyncs.Inc()
	return nil
}

// NextIndex returns the index the next Append will get.
func (l *Log) NextIndex() int { return l.nextIndex }

// SnapshotIndex returns the record index covered by the newest snapshot.
func (l *Log) SnapshotIndex() int { return l.snapIndex }

// SaveSnapshot compacts the log: it durably writes state as a snapshot
// covering every record appended so far, then removes all segments and older
// snapshots. The snapshot is synced *before* anything is removed, so a crash
// anywhere in between leaves a recoverable log (at worst with leftover
// files, which recovery skips).
func (l *Log) SaveSnapshot(state []byte) error {
	if l.broken != nil {
		return l.broken
	}
	index := l.nextIndex - 1
	if l.hasSnap && index == l.snapIndex {
		return nil // nothing appended since the last snapshot
	}
	name := snapName(l.opts.Dir, index)
	// Anything already at this name is a torn artifact of an interrupted
	// SaveSnapshot (an intact snapshot at this index would have been chosen
	// by recovery); clear it so the new frame starts at offset 0.
	if err := l.opts.FS.Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
		l.broken = err
		return err
	}
	f, err := l.opts.FS.OpenAppend(name)
	if err != nil {
		l.broken = err
		return err
	}
	if _, err := f.Write(frame(state)); err != nil {
		f.Close()
		l.broken = err
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.broken = err
		return err
	}
	if err := f.Close(); err != nil {
		l.broken = err
		return err
	}

	// The snapshot is durable: everything older is garbage.
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			l.broken = err
			return err
		}
		l.cur = nil
	}
	for _, seg := range l.segments {
		if err := l.opts.FS.Remove(seg.name); err != nil {
			l.broken = err
			return err
		}
	}
	l.segments = nil
	if l.hasSnap && l.snapIndex != index {
		if err := l.opts.FS.Remove(snapName(l.opts.Dir, l.snapIndex)); err != nil && !errors.Is(err, os.ErrNotExist) {
			l.broken = err
			return err
		}
	}
	l.snapIndex, l.hasSnap = index, true
	return nil
}

// Close releases the active segment.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	return err
}
