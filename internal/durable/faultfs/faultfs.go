// Package faultfs is the test double for durable.FS: the real filesystem
// with every operation recorded and, optionally, one of them made to fail.
// It exists so the primitive and its four clients can be broken on purpose
// — short write, ENOSPC, failed fsync, rename, truncate and directory fsync
// — at every operation index of a script, not only by kill -9.
package faultfs

import (
	"fmt"
	"sync"
	"syscall"
	"testing"

	"unico/internal/durable"
)

// Op names one filesystem operation kind.
type Op string

// The operations an FS records, as they appear in Ops.
const (
	Open       Op = "open"
	CreateTemp Op = "createtemp"
	Write      Op = "write"
	Sync       Op = "sync"
	Truncate   Op = "truncate"
	Close      Op = "close"
	Rename     Op = "rename"
	SyncDir    Op = "syncdir"
)

// FS is a durable.FS over the real filesystem that records every operation
// and fails the one at index failAt with ENOSPC.
type FS struct {
	mu     sync.Mutex
	ops    []Op
	failAt int  // index into ops of the operation to fail; -1 for none
	short  bool // the failing operation, if a write, first lands half its bytes
}

// New returns an FS that records and never fails.
func New() *FS { return &FS{failAt: -1} }

// Failing returns an FS whose operation number failAt (0-based, in Ops
// order) fails. With short set, a failing write first lands half its bytes —
// a torn record — where otherwise it lands none.
func Failing(failAt int, short bool) *FS { return &FS{failAt: failAt, short: short} }

// Ops returns the operations attempted so far, in order.
func (fs *FS) Ops() []Op {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]Op(nil), fs.ops...)
}

// Reset forgets the operations recorded so far.
func (fs *FS) Reset() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops = nil
}

// step records op and returns ENOSPC if it is the one to fail.
func (fs *FS) step(op Op) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops = append(fs.ops, op)
	if len(fs.ops)-1 == fs.failAt {
		return syscall.ENOSPC
	}
	return nil
}

// OpenFile implements durable.FS.
func (fs *FS) OpenFile(name string, flag int) (durable.File, error) {
	if err := fs.step(Open); err != nil {
		return nil, err
	}
	f, err := durable.OS{}.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs}, nil
}

// CreateTemp implements durable.FS.
func (fs *FS) CreateTemp(dir, pattern string) (durable.File, string, error) {
	if err := fs.step(CreateTemp); err != nil {
		return nil, "", err
	}
	f, name, err := durable.OS{}.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return &file{File: f, fs: fs}, name, nil
}

// Rename implements durable.FS.
func (fs *FS) Rename(oldpath, newpath string) error {
	if err := fs.step(Rename); err != nil {
		return err
	}
	return durable.OS{}.Rename(oldpath, newpath)
}

// SyncDir implements durable.FS.
func (fs *FS) SyncDir(dir string) error {
	if err := fs.step(SyncDir); err != nil {
		return err
	}
	return durable.OS{}.SyncDir(dir)
}

type file struct {
	durable.File
	fs *FS
}

func (f *file) Write(p []byte) (int, error) {
	if err := f.fs.step(Write); err != nil {
		n := 0
		if f.fs.short {
			n, _ = f.File.Write(p[:len(p)/2])
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	if err := f.fs.step(Sync); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *file) Truncate(size int64) error {
	if err := f.fs.step(Truncate); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

// Close always closes the real file, so a failed close leaks no descriptor.
func (f *file) Close() error {
	err := f.File.Close()
	if serr := f.fs.step(Close); serr != nil {
		return serr
	}
	return err
}

// Matrix runs script once on a recording FS to learn its operations, then
// once per fault cell: every operation index failing, and every write index
// additionally failing short. script must set up its own directory
// (t.TempDir) and check its own invariants; fault is the kind of operation
// that fails in this cell ("" in the fault-free run), which lets it tell a
// fatal fault from a directory-fsync one.
func Matrix(t *testing.T, script func(t *testing.T, fsys *FS, fault Op)) {
	t.Helper()
	clean := New()
	script(t, clean, "")
	for i, op := range clean.Ops() {
		t.Run(fmt.Sprintf("%s@%d", op, i), func(t *testing.T) { script(t, Failing(i, false), op) })
		if op == Write {
			t.Run(fmt.Sprintf("short%s@%d", op, i), func(t *testing.T) { script(t, Failing(i, true), op) })
		}
	}
}
