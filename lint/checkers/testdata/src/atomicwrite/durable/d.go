// Package durable carries the durable path segment: the one package that
// may rename, create temporaries and fsync — and must fsync before it
// renames.
package durable

import "os"

type File interface {
	Sync() error
	Close() error
}

type FS interface {
	Rename(oldpath, newpath string) error
}

// OS is the seam's real implementation: a method named Rename is the seam
// itself, not a publish step.
type OS struct{}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func renameWithoutSync(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `os\.Rename without a prior Sync`
}

func seamRenameWithoutSync(fsys FS, tmp, dst string) error {
	return fsys.Rename(tmp, dst) // want `os\.Rename without a prior Sync`
}

func renameWithSync(fsys FS, f File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return fsys.Rename(tmp, dst)
}

func osRenameWithSync(f *os.File, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(f.Name(), dst)
}

func syncAfterRenameIsStillWrong(f *os.File, dst string) error {
	if err := os.Rename(f.Name(), dst); err != nil { // want `os\.Rename without a prior Sync`
		return err
	}
	return f.Sync()
}

func tempHereIsFine(dir string) (*os.File, error) { return os.CreateTemp(dir, "x.tmp-*") }

func snapshot(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os\.WriteFile in persistence package`
}
