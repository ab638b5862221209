// Package wal provides the durability layer of the durable replicas: an
// append-only, length-prefixed, CRC32C-checksummed write-ahead log with
// configurable fsync discipline, segment rotation and snapshot+truncate
// compaction. It is the piece PR 1's crash-recovery argument assumed but
// never exercised: protocol.Replica documents that synchronous persistence is a
// *safety* requirement (a replica recovering stale state can equivocate
// against its own pre-crash messages), and this package is where that
// persistence actually happens — on a filesystem, behind an FS interface, so
// that storage faults (kill-at-write-point, torn tails, flipped bytes,
// missing fsync) can be injected deterministically by internal/faults and
// recovery can be tortured rather than asserted.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the append handle the log writes through. Sync is the fsync
// boundary: bytes written but not yet synced may be lost — wholly or
// partially (a torn tail) — by a crash.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage.
	Sync() error
	io.Closer
}

// FS abstracts the filesystem the log lives on. The production
// implementation is OSFS; tests and the fault plane use MemFS (optionally
// wrapped by a fault injector) so that every crash, tear and bit flip is
// seeded and replayable.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// ReadFile returns the full durable content of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the file names (not paths) in dir, sorted. A missing
	// directory is an empty listing, not an error.
	ReadDir(dir string) ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and parents.
	MkdirAll(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// MemFS is a deterministic in-memory filesystem with explicit durability
// semantics: each file tracks a synced prefix (on "disk") and an unsynced
// tail (in the "page cache"). Crash discards the unsynced tails — the model
// under which fsync discipline is testable at all. MemFS is not
// concurrency-safe; the simulator is single-threaded by design.
type MemFS struct {
	files map[string]*memFile
}

type memFile struct {
	data   []byte
	synced int
}

// NewMemFS builds an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: map[string]*memFile{}} }

func (m *MemFS) file(name string) *memFile {
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	return f
}

type memHandle struct {
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("wal: write to closed file")
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	if h.closed {
		return fmt.Errorf("wal: sync of closed file")
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { h.closed = true; return nil }

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	return &memHandle{f: m.file(name)}, nil
}

// ReadFile implements FS. It returns everything written, synced or not: an
// un-crashed machine serves reads from the page cache.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	f, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), f.data...), nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	var names []string
	prefix := dir + string(filepath.Separator)
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

// MkdirAll implements FS (directories are implicit).
func (m *MemFS) MkdirAll(string) error { return nil }

// Crash models a machine crash: every file's unsynced tail is discarded.
// keep, when non-nil, may preserve a prefix of a file's unsynced tail
// (partially flushed page cache — the torn-write knob the fault injector
// turns); it returns how many unsynced bytes survive, clamped to [0, tail].
func (m *MemFS) Crash(keep func(name string, unsyncedTail int) int) {
	for name, f := range m.files {
		tail := len(f.data) - f.synced
		if tail <= 0 {
			continue
		}
		extra := 0
		if keep != nil {
			extra = keep(name, tail)
			if extra < 0 {
				extra = 0
			}
			if extra > tail {
				extra = tail
			}
		}
		f.data = f.data[:f.synced+extra]
		f.synced = len(f.data)
	}
}

// ForceSync marks a file's full content durable (the fault injector uses it
// to commit a torn prefix to "disk").
func (m *MemFS) ForceSync(name string) {
	if f, ok := m.files[name]; ok {
		f.synced = len(f.data)
	}
}

// CorruptByte XORs the byte at off in name with mask (mask 0 is promoted to
// 0xFF so the byte always changes) and reports whether the offset existed —
// the bit-rot primitive of the storage fault plane.
func (m *MemFS) CorruptByte(name string, off int, mask byte) bool {
	f, ok := m.files[name]
	if !ok || off < 0 || off >= len(f.data) {
		return false
	}
	if mask == 0 {
		mask = 0xFF
	}
	f.data[off] ^= mask
	return true
}

// Size returns the durable (synced) size of name, or -1 if absent.
func (m *MemFS) Size(name string) int {
	f, ok := m.files[name]
	if !ok {
		return -1
	}
	return f.synced
}

// Names lists every file, sorted.
func (m *MemFS) Names() []string {
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
