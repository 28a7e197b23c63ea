package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// noSync is the real filesystem minus the fsyncs, which would otherwise be
// all the fuzzer spends its time on.
type noSync struct{ OS }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

func (noSync) OpenFile(name string, flag int) (File, error) {
	f, err := OS{}.OpenFile(name, flag)
	return noSyncFile{f}, err
}

// FuzzRecover throws arbitrary bytes at the recovery reader: it must not
// panic, must return only whole records (re-framing them reproduces the
// kept prefix byte for byte), and must be idempotent.
func FuzzRecover(f *testing.F) {
	for _, fr := range []Framing{Lines, CRC} {
		var seed []byte
		for _, p := range []string{`{"iter":1}`, ``, `{"iter":2,"pad":"xxxxxxxx"}`} {
			seed = append(seed, fr.frame([]byte(p))...)
		}
		f.Add(seed, fr == CRC)
		f.Add(seed[:len(seed)-3], fr == CRC)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, crc bool) {
		fr := Lines
		if crc {
			fr = CRC
		}
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var reframed []byte
		kept, dropped, err := Recover(noSync{}, path, fr, func(p []byte) bool {
			reframed = append(reframed, fr.frame(p)...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(left))+dropped != int64(len(data)) || !bytes.HasPrefix(data, left) {
			t.Fatalf("recovery kept %d bytes and dropped %d of %d", len(left), dropped, len(data))
		}
		if !bytes.Equal(reframed, left) {
			t.Fatalf("recovered records do not re-frame to the kept prefix:\n%q\n%q", reframed, left)
		}
		kept2, dropped2, err := Recover(noSync{}, path, fr, func([]byte) bool { return true })
		if err != nil || kept2 != kept || dropped2 != 0 {
			t.Fatalf("second recovery = %d, %d, %v; first kept %d", kept2, dropped2, err, kept)
		}
	})
}
