// Package durable is the one place in the tree that makes bytes survive a
// crash: Log, an fsynced append-only record log with torn-tail recovery
// (Recover) in two framings; WriteFile, an atomic whole-file replace; and
// ReadLines, the tolerant reader for the JSONL artifacts. The checkpoint,
// flight record, span log, cache file and BENCH_*.json writers are thin
// clients; unicolint's atomicwrite and durerr analyzers keep Sync, os.Rename
// and os.CreateTemp out of every other package. ARCHITECTURE.md §5
// ("Durability") has the contract and the fault matrix that tests it.
package durable

import (
	"io"
	"os"
)

// File is what the primitive needs of an open file.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem seam: the operations whose failure a durable write
// has to survive. OS is the real one; the only other implementation is the
// fault-injecting test double in internal/durable/faultfs. Reads and the
// cleanup of temporaries go to package os directly.
type FS interface {
	// OpenFile opens name for writing with os.OpenFile's flags.
	OpenFile(name string, flag int) (File, error)
	// CreateTemp is os.CreateTemp, returning the file with its name.
	CreateTemp(dir, pattern string) (File, string, error)
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs the directory itself, making a rename inside it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
