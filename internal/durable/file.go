package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with what write produces: a temporary
// file in the same directory is written, fsynced, closed and renamed into
// place, so a crash at any point leaves either the previous content or the
// new one, never a mixture or a prefix. The directory is then fsynced,
// best-effort, to make the rename itself durable.
func WriteFile(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, name, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	//unicolint:allow durerr directory fsync is best-effort: some filesystems reject fsync on directories; file durability is carried by the checked tmp.Sync above
	_ = fsys.SyncDir(dir)
	return nil
}
