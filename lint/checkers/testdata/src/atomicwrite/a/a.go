// Package a sits outside internal/durable, where the building blocks of a
// hand-rolled durable write are flagged outright.
package a

import "os"

func renameOutside(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `os\.Rename outside internal/durable in renameOutside`
}

// Even the textbook sequence: it belongs in durable.WriteFile.
func handRolledAtomicWrite(dir, dst string, b []byte) error {
	f, err := os.CreateTemp(dir, "x.tmp-*") // want `os\.CreateTemp outside internal/durable`
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil { // want `f\.Sync\(\) outside internal/durable`
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), dst) // want `os\.Rename outside internal/durable`
}

// WriteFile outside the persistence packages is legal (non-durable output,
// test scaffolding and the like), as is any file that is never fsynced.
func writeFileHereIsFine(path string) error {
	return os.WriteFile(path, []byte("x"), 0o644)
}

func plainFileIsFine(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(b)
	return err
}
