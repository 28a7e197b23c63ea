// Package durable carries the durable path segment — the one package
// allowed to make data durable — so durerr tracks every durability-relevant
// error here, on *os.File and through the File/FS seam alike.
package durable

import "os"

// File and FS mirror the seam of the real internal/durable.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type FS interface {
	OpenFile(name string, flag int) (File, error)
	CreateTemp(dir, pattern string) (File, string, error)
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

// Positive: a discarded Sync error is a lost write.
func syncDiscarded(path string) {
	f, _ := os.Create(path)
	f.Sync() // want `f\.Sync\(\) error discarded in syncDiscarded`
	f.Close()
}

// Positive: blanking the Sync error is still a discard.
func syncBlanked(f *os.File) {
	_ = f.Sync() // want `f\.Sync\(\) error explicitly discarded in syncBlanked`
}

// Positive: a discarded rename un-publishes the snapshot protocol.
func renameDiscarded(tmp, dst string) {
	os.Rename(tmp, dst) // want `os\.Rename error discarded in renameDiscarded`
}

func renameBlanked(tmp, dst string) {
	_ = os.Rename(tmp, dst) // want `os\.Rename error explicitly discarded in renameBlanked`
}

// Positive: closing a written file without ever syncing it discards the
// only error the OS may still be holding.
func closeUnsynced(path string, b []byte) {
	f, _ := os.Create(path)
	f.Write(b)
	f.Close() // want `f\.Close\(\) error discarded in closeUnsynced while the file may hold unsynced writes`
}

// Positive: a deferred close on a function that never syncs.
func deferCloseNeverSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want `deferred f\.Close\(\) in deferCloseNeverSynced discards the close error`
	_, err = f.Write(b)
	return err
}

// Positive: OpenFile with write flags is a write-open.
func appendUnsynced(path string, b []byte) {
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write(b)
	f.Close() // want `f\.Close\(\) error discarded in appendUnsynced`
}

// Negative: the full checked protocol — sync checked, close checked.
func checkedProtocol(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Negative: the idiomatic defer-close backstop with a checked inline sync
// on the happy path; the defer only double-closes after success and only
// discards on paths that already failed.
func deferBackstop(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

// Negative: a bare close after a checked sync cannot lose a write error.
func closeAfterCheckedSync(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	f.Close()
	return nil
}

// Negative: read-only files owe nothing at close.
func readPath(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	_, err = f.Read(buf)
	return buf, err
}

// Negative: an explicitly blanked close is an acknowledged cleanup discard.
func acknowledgedCleanup(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_ = f.Close()
	return os.Remove(path)
}

// Positive: the seam's calls count as the os calls they stand for.
func seamSyncDiscarded(f File) {
	f.Sync() // want `f\.Sync\(\) error discarded in seamSyncDiscarded`
}

func seamSyncDirBlanked(fsys FS, dir string) {
	_ = fsys.SyncDir(dir) // want `fsys\.SyncDir\(\) error explicitly discarded in seamSyncDirBlanked`
}

func seamRenameDiscarded(fsys FS, tmp, dst string) {
	fsys.Rename(tmp, dst) // want `os\.Rename error discarded in seamRenameDiscarded`
}

func seamCloseUnsynced(fsys FS, path string, b []byte) {
	f, _ := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND)
	f.Write(b)
	f.Close() // want `f\.Close\(\) error discarded in seamCloseUnsynced while the file may hold unsynced writes`
}

func seamTempNeverSynced(fsys FS, dir string, b []byte) error {
	tmp, _, err := fsys.CreateTemp(dir, "x.tmp-*")
	if err != nil {
		return err
	}
	defer tmp.Close() // want `deferred tmp\.Close\(\) in seamTempNeverSynced discards the close error`
	_, err = tmp.Write(b)
	return err
}

// Negative: the atomic-write protocol through the seam, every error checked
// and the directory fsync reported to the caller.
func seamCheckedProtocol(fsys FS, dir, dst string, b []byte) error {
	tmp, name, err := fsys.CreateTemp(dir, "x.tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(name, dst)
	}
	if err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
