// Package a sits outside internal/durable: durerr does not apply (that such
// a package calls Sync or os.Rename at all is atomicwrite's finding).
// Non-durable output (reports, scratch files) may discard close errors.
package a

import "os"

func scratchFile(path string, b []byte) {
	f, _ := os.Create(path)
	f.Write(b)
	f.Sync()
	f.Close()
	os.Rename(path, path+".bak")
}
