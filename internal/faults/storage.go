package faults

// This file is the storage half of the fault plane: the tentpole of the
// durability work. Each durable replica owns a wal.Log on a private in-memory
// filesystem, and a StorageFS interposed between the log and that filesystem
// realizes the four storage failure modes the recovery code must survive —
// kill-at-write-point, torn tail, flipped byte, lying fsync. Every failure is
// driven by the plan seed, so a torture run that trips an assertion replays
// exactly from its scenario JSON.
//
// The safety argument the torture harness leans on is the persist-before-
// release discipline implemented in wrapProc: a delivery's outgoing messages
// are buffered, the delivered message is appended to the WAL, and only then
// are the sends released. A crash during the append therefore loses only
// state the rest of the system never saw, so a replica recovered from a clean
// kill or torn tail is still a correct process and Agreement/Validity are
// asserted over it. Faults that can erase *released* history — a lying fsync
// or a bit flip that forces truncation — make the replica Byzantine-
// equivalent (it may contradict its own pre-crash messages), so the torture
// generator budgets those replicas against t exactly like Byzantine
// processes, and detected-unrecoverable logs quarantine the replica (silent
// forever, a crash-stop).

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// Storage fault kinds.
const (
	// StoreKill crashes the replica during a record append; the frame tears
	// at a seeded cut (possibly 0 or the whole frame).
	StoreKill = "kill"
	// StoreTorn is a kill with a guaranteed mid-frame tear, pinning the
	// torn-tail truncation path.
	StoreTorn = "torn"
	// StoreFlip crashes the replica at an append and flips one durable byte
	// while it is down — bit rot the checksums must catch.
	StoreFlip = "flip"
	// StoreNoSync makes fsync silently lie from this append on; a crash a few
	// appends later reveals the lost suffix (amnesia).
	StoreNoSync = "nosync"
)

// StorageFault schedules one storage failure on one replica's WAL.
type StorageFault struct {
	Proc network.ProcID `json:"proc"`
	// Append is the 1-based ordinal of the record append that triggers the
	// fault (counted over the replica's whole lifetime).
	Append int    `json:"append"`
	Kind   string `json:"kind"`
	// Recover is how many steps the replica stays down after the crash;
	// negative means it never restarts and counts against t like crash-stop.
	Recover int `json:"recover"`
	// KillAfter (nosync only) is how many further appends the lying fsync
	// survives before the revealing crash; default 3.
	KillAfter int `json:"kill_after,omitempty"`
}

// Risky reports whether the fault can erase released history (amnesia) or
// remove the replica permanently — either way the replica must be budgeted
// against t.
func (f StorageFault) Risky() bool {
	return f.Kind == StoreFlip || f.Kind == StoreNoSync || f.Recover < 0
}

// StorageKinds is the set of valid StorageFault kinds.
var StorageKinds = map[string]bool{StoreKill: true, StoreTorn: true, StoreFlip: true, StoreNoSync: true}

// ErrKilled is the error a write returns when a kill point fires: the
// process is gone mid-append.
var ErrKilled = errors.New("faults: storage kill point")

// storageFor filters the plan's storage faults down to one replica, in plan
// order.
func (p Plan) storageFor(id network.ProcID) []StorageFault {
	var out []StorageFault
	for _, f := range p.Storage {
		if f.Proc == id {
			out = append(out, f)
		}
	}
	return out
}

// StorageFS implements wal.FS over a MemFS, firing the scheduled storage
// faults at record-append write points. Only segment writes count as append
// ordinals; snapshot writes pass through (their crash-safety is the WAL's own
// compaction protocol, exercised separately). It is exported for the
// durability tests of other WAL users (the cluster coordinator's journal).
type StorageFS struct {
	mem    *wal.MemFS
	rng    *rand.Rand
	dir    string
	faults []StorageFault
	fired  []bool

	appends       int
	syncOff       bool
	syncKillAt    int // append ordinal of the nosync-revealing crash (0 = none)
	syncKillFault StorageFault

	// flipped records every injected bit-flip offset per file (base name) —
	// the oracle input for detecting silently accepted corruption.
	flipped map[string][]int

	// onCrash tells the injector the replica just died at a write point.
	onCrash func(f StorageFault)
}

// NewStorageFS returns an injector over a fresh in-memory filesystem that
// fires faults at their append ordinals on the log in dir; every seeded
// choice (tear points, flipped bytes) draws from seed.
func NewStorageFS(dir string, seed int64, faults []StorageFault) *StorageFS {
	return &StorageFS{
		mem:     wal.NewMemFS(),
		rng:     rand.New(rand.NewSource(seed)),
		dir:     dir,
		faults:  faults,
		fired:   make([]bool, len(faults)),
		flipped: map[string][]int{},
	}
}

// Crash models the machine dying between writes: every page not yet fsynced
// is gone, and a lying fsync is honest again after the reboot.
func (f *StorageFS) Crash() { f.crash(StorageFault{}) }

func (f *StorageFS) isSeg(name string) bool {
	return strings.HasPrefix(filepath.Base(name), "seg-")
}

// crash models the machine dying now: unsynced page cache is dropped and the
// lying-fsync state resets (a rebooted kernel syncs honestly again).
func (f *StorageFS) crash(fault StorageFault) {
	f.mem.Crash(nil)
	f.syncOff = false
	f.syncKillAt = 0
	if f.onCrash != nil {
		f.onCrash(fault)
	}
}

// flip corrupts one seeded durable byte in one seeded file of the log dir.
func (f *StorageFS) flip() {
	var names []string
	for _, n := range f.mem.Names() {
		if strings.HasPrefix(n, f.dir+string(filepath.Separator)) && f.mem.Size(n) > 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return
	}
	name := names[f.rng.Intn(len(names))]
	off := f.rng.Intn(f.mem.Size(name))
	if f.mem.CorruptByte(name, off, 0) {
		base := filepath.Base(name)
		f.flipped[base] = append(f.flipped[base], off)
	}
}

// take returns the unfired fault scheduled for the current append ordinal.
func (f *StorageFS) take() *StorageFault {
	for i := range f.faults {
		if !f.fired[i] && f.faults[i].Append == f.appends {
			f.fired[i] = true
			return &f.faults[i]
		}
	}
	return nil
}

// OpenAppend implements wal.FS.
func (f *StorageFS) OpenAppend(name string) (wal.File, error) {
	h, err := f.mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, name: name, inner: h}, nil
}

// ReadFile implements wal.FS.
func (f *StorageFS) ReadFile(name string) ([]byte, error) { return f.mem.ReadFile(name) }

// ReadDir implements wal.FS.
func (f *StorageFS) ReadDir(dir string) ([]string, error) { return f.mem.ReadDir(dir) }

// Remove implements wal.FS.
func (f *StorageFS) Remove(name string) error { return f.mem.Remove(name) }

// MkdirAll implements wal.FS.
func (f *StorageFS) MkdirAll(dir string) error { return f.mem.MkdirAll(dir) }

type faultHandle struct {
	fs    *StorageFS
	name  string
	inner wal.File
}

func (h *faultHandle) Write(p []byte) (int, error) {
	fs := h.fs
	if !fs.isSeg(h.name) {
		return h.inner.Write(p)
	}
	fs.appends++
	if fs.syncKillAt != 0 && fs.appends >= fs.syncKillAt {
		// The nosync-revealing crash: this write and every unsynced byte
		// before it evaporate.
		h.inner.Write(p)
		fs.crash(fs.syncKillFault)
		return 0, ErrKilled
	}
	fault := fs.take()
	if fault == nil {
		return h.inner.Write(p)
	}
	switch fault.Kind {
	case StoreKill, StoreTorn:
		lo, hi := 0, len(p)
		if fault.Kind == StoreTorn && len(p) >= 2 {
			lo, hi = 1, len(p)-1 // guaranteed mid-frame tear
		}
		cut := lo
		if hi > lo {
			cut = lo + fs.rng.Intn(hi-lo+1)
		}
		h.inner.Write(p[:cut])
		// The torn prefix reached the platter before the power died.
		fs.mem.ForceSync(h.name)
		fs.crash(*fault)
		return 0, ErrKilled
	case StoreNoSync:
		fs.syncOff = true
		ka := fault.KillAfter
		if ka <= 0 {
			ka = 3
		}
		fs.syncKillAt = fs.appends + ka
		fs.syncKillFault = *fault
		return h.inner.Write(p)
	case StoreFlip:
		if _, err := h.inner.Write(p); err != nil {
			return 0, err
		}
		h.inner.Sync()
		fs.crash(*fault)
		fs.flip()
		return 0, ErrKilled
	}
	return h.inner.Write(p)
}

func (h *faultHandle) Sync() error {
	if h.fs.syncOff {
		return nil // the lying fsync: reports success, persists nothing
	}
	return h.inner.Sync()
}

func (h *faultHandle) Close() error { return h.inner.Close() }

// walSegBytes keeps torture-run segments small so rotation and multi-segment
// recovery are exercised constantly, not only at scale.
const walSegBytes = 1024

// walCompactEvery is the snapshot+truncate cadence in records.
const walCompactEvery = 8

// replicaStore is one replica's durable state: a wal.Log of delivered
// messages over a base snapshot, on a fault-injected in-memory filesystem.
// Recovery = RestoreBytes(base snapshot) + re-Deliver of the logged suffix.
type replicaStore struct {
	id network.ProcID
	// fresh builds a blank replica of the owner's protocol and parameters,
	// the starting point of the replay oracle.
	fresh func() (protocol.Replica, error)
	fs    *StorageFS
	dir   string

	log          *wal.Log
	rec          protocol.Replica // the live replica; set by Injector.Wrap
	sinceCompact int

	// dirty means the replica's in-memory state has diverged from disk (a
	// kill interrupted a persist and no recovery has run since).
	dirty bool
	// silent accumulates flip-oracle hits: corrupted frames recovery trusted.
	silent []string
}

func newReplicaStore(id network.ProcID, fresh func() (protocol.Replica, error), faults []StorageFault, seed int64) *replicaStore {
	dir := "wal"
	return &replicaStore{
		id:    id,
		fresh: fresh,
		dir:   dir,
		fs:    NewStorageFS(dir, seed, faults),
	}
}

func (s *replicaStore) open() (*wal.Recovery, error) {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	l, rec, err := wal.Open(wal.Options{FS: s.fs, Dir: s.dir, SegmentBytes: walSegBytes, Sync: wal.SyncEachAppend})
	if err != nil {
		return nil, err
	}
	s.log = l
	s.sinceCompact = 0
	return rec, nil
}

// begin opens the log and persists the post-Start state as the base
// snapshot — before any of Start's sends are released.
func (s *replicaStore) begin() error {
	if _, err := s.open(); err != nil {
		return err
	}
	return s.log.SaveSnapshot(s.rec.SnapshotBytes())
}

// appendMsg persists one delivered message, compacting on cadence. An
// ErrKilled return means the replica died at the write point (the injector
// has already been told); any other error is unrecoverable.
func (s *replicaStore) appendMsg(m network.Message) error {
	if err := s.log.Append(protocol.EncodeMessage(m)); err != nil {
		return err
	}
	s.sinceCompact++
	if s.sinceCompact >= walCompactEvery {
		if err := s.log.SaveSnapshot(s.rec.SnapshotBytes()); err != nil {
			return err
		}
		s.sinceCompact = 0
	}
	return nil
}

// recoverDisk reopens the log and rebuilds the live replica from it; fresh
// means nothing durable exists at all (and the replica is untouched). Errors
// wrap corruption the checksums caught — the caller quarantines.
func (s *replicaStore) recoverDisk() (fresh bool, err error) {
	rec, err := s.open()
	if err != nil {
		return false, err
	}
	s.checkSilent(rec)
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		return true, nil
	}
	if rec.Snapshot == nil {
		return false, fmt.Errorf("faults: p%d: wal has records but no base snapshot", s.id)
	}
	return false, rebuild(s.rec, rec)
}

// rebuild is recovery proper: restore the base snapshot into p and
// re-Deliver the logged messages with a no-op sender — their sends already
// left pre-crash, and the rebuilt outbox retransmits on its own clock. p is
// untouched unless the whole recovery decodes.
func rebuild(p protocol.Replica, rec *wal.Recovery) error {
	msgs := make([]network.Message, 0, len(rec.Records))
	for _, r := range rec.Records {
		m, err := protocol.DecodeMessage(r)
		if err != nil {
			return err
		}
		msgs = append(msgs, m)
	}
	if err := p.RestoreBytes(rec.Snapshot); err != nil {
		return err
	}
	nop := func(network.Message) {}
	for _, m := range msgs {
		p.Deliver(m, nop)
	}
	return nil
}

// checkSilent is the flip oracle: an injected flip offset inside a byte
// range recovery accepted means a checksum was silently bypassed.
func (s *replicaStore) checkSilent(rec *wal.Recovery) {
	for name, offs := range s.fs.flipped {
		for _, off := range offs {
			for _, r := range rec.Accepted[name] {
				if off >= r[0] && off < r[1] {
					s.silent = append(s.silent,
						fmt.Sprintf("p%d: flipped byte %s+%d inside accepted frame [%d,%d)", s.id, name, off, r[0], r[1]))
				}
			}
		}
	}
}

func (s *replicaStore) takeSilent() []string {
	out := s.silent
	s.silent = nil
	return out
}

// replayFingerprint rebuilds the replica's state from nothing but the
// durable log — a fresh process, the base snapshot, the record suffix — and
// returns its canonical encoding. For a clean replica this must equal the
// live state's encoding byte for byte.
func (s *replicaStore) replayFingerprint() ([]byte, error) {
	l, rec, err := wal.Open(wal.Options{FS: s.fs, Dir: s.dir, SegmentBytes: walSegBytes, Sync: wal.SyncEachAppend})
	if err != nil {
		return nil, err
	}
	l.Close()
	if rec.Snapshot == nil {
		return nil, fmt.Errorf("faults: p%d: replay: no base snapshot", s.id)
	}
	p, err := s.fresh()
	if err != nil {
		return nil, err
	}
	if err := rebuild(p, rec); err != nil {
		return nil, err
	}
	return p.SnapshotBytes(), nil
}
