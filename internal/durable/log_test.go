package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unico/internal/durable"
	"unico/internal/durable/faultfs"
)

var framings = map[string]durable.Framing{"lines": durable.Lines, "crc": durable.CRC}

// payloads are the records every test appends: short, long, binary-ish
// (CRC only cares about bytes; Lines needs newline-free payloads).
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"iter":%d,"pad":%q}`, i+1, strings.Repeat("x", i*7%23)))
	}
	return out
}

// recoverAll runs Recover on the real filesystem accepting every record.
func recoverAll(t *testing.T, path string, fr durable.Framing) (recs [][]byte, dropped int64) {
	t.Helper()
	_, dropped, err := durable.Recover(durable.OS{}, path, fr, func(p []byte) bool {
		recs = append(recs, bytes.Clone(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, dropped
}

func writeLog(t *testing.T, path string, fr durable.Framing, recs [][]byte) {
	t.Helper()
	l, err := durable.OpenLog(durable.OS{}, path, fr, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateAtEveryByte is the crash property of the log: cut the file at
// any byte and recovery returns exactly the records that fit whole before
// the cut, leaves the file ending on that boundary, and the next append
// lands right after them.
func TestTruncateAtEveryByte(t *testing.T) {
	for name, fr := range framings {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.log")
			want := payloads(6)
			writeLog(t, full, fr, want)
			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			// ends[i] is the file offset just past record i.
			var ends []int
			for i := range want {
				writeLog(t, full, fr, want[:i+1])
				fi, _ := os.Stat(full)
				ends = append(ends, int(fi.Size()))
			}
			extra := []byte(`{"iter":"next"}`)
			for cut := 0; cut <= len(data); cut++ {
				path := filepath.Join(dir, "cut.log")
				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				whole, keep := 0, 0
				for whole < len(ends) && ends[whole] <= cut {
					keep = ends[whole]
					whole++
				}
				got, dropped := recoverAll(t, path, fr)
				if len(got) != whole || dropped != int64(cut-keep) {
					t.Fatalf("cut %d: %d records, %d bytes dropped; want %d, %d", cut, len(got), dropped, whole, cut-keep)
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("cut %d: record %d = %q, want %q", cut, i, got[i], want[i])
					}
				}
				if fi, _ := os.Stat(path); fi.Size() != int64(keep) {
					t.Fatalf("cut %d: file is %d bytes after recovery, want %d", cut, fi.Size(), keep)
				}
				l, err := durable.OpenLog(durable.OS{}, path, fr, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Append(extra); err != nil {
					t.Fatal(err)
				}
				l.Close()
				again, dropped := recoverAll(t, path, fr)
				if len(again) != whole+1 || dropped != 0 || !bytes.Equal(again[whole], extra) {
					t.Fatalf("cut %d: append after recovery read back as %d records (%d dropped)", cut, len(again), dropped)
				}
			}
		})
	}
}

func TestRecoverMissingFileIsEmptyLog(t *testing.T) {
	kept, dropped, err := durable.Recover(durable.OS{}, filepath.Join(t.TempDir(), "nope"), durable.CRC,
		func([]byte) bool { t.Error("accept called"); return true })
	if kept != 0 || dropped != 0 || err != nil {
		t.Errorf("Recover(missing) = %d, %d, %v", kept, dropped, err)
	}
}

func TestRecoverCutsWhatAcceptRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	recs := payloads(5)
	writeLog(t, path, durable.Lines, recs)
	kept, dropped, err := durable.Recover(durable.OS{}, path, durable.Lines, func(p []byte) bool { return !bytes.Equal(p, recs[3]) })
	if err != nil || kept != 3 || dropped != int64(len(recs[3])+len(recs[4])+2) {
		t.Fatalf("Recover = %d, %d, %v", kept, dropped, err)
	}
	if got, _ := recoverAll(t, path, durable.Lines); len(got) != 3 {
		t.Errorf("%d records left, want 3", len(got))
	}
}

func TestClosedLogRefuses(t *testing.T) {
	l, err := durable.OpenLog(durable.OS{}, filepath.Join(t.TempDir(), "x.log"), durable.Lines, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Reset(); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("Reset after Close = %v, want ErrClosed", err)
	}
	if l.Err() != nil || l.Close() != nil {
		t.Error("closing is not a failure")
	}
}

// TestFaultMatrix breaks the primitive at every operation of a script that
// exercises all of it — appends, an atomic file write, a reset, more of both
// — and checks, after reopening on the real filesystem:
//
//   - acknowledged ⇒ recovered: every append that returned nil since the
//     last reset is in the log, and the file holds exactly the last version
//     WriteFile acknowledged;
//   - never a partial record: what is recovered is a run of the records
//     written, whole and in order, and no temporary is left behind;
//   - failure ⇒ surfaced error, and after it every append is refused — except
//     a failed directory fsync, which stays non-fatal.
func TestFaultMatrix(t *testing.T) {
	for name, fr := range framings {
		t.Run(name, func(t *testing.T) {
			faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
				dir := t.TempDir()
				logPath, filePath := filepath.Join(dir, "x.log"), filepath.Join(dir, "x.snap")
				recs := payloads(5)
				var acked [][]byte // appends acknowledged since the last reset
				var fileAcked []byte
				failed := false // some call returned an error
				latched := false

				l, err := durable.OpenLog(fsys, logPath, fr, true)
				if err != nil {
					failed = true
				}
				appendRec := func(p []byte) {
					if l == nil {
						return
					}
					err := l.Append(p)
					if err == nil && latched {
						t.Errorf("append accepted after a failure")
					}
					if err != nil {
						failed, latched = true, true
						if !errors.Is(l.Err(), err) {
							t.Errorf("Err() = %v, want the append error %v", l.Err(), err)
						}
						return
					}
					acked = append(acked, p)
				}
				writeFile := func(v string) {
					err := durable.WriteFile(fsys, filePath, func(w io.Writer) error {
						_, err := io.WriteString(w, v)
						return err
					})
					if err != nil {
						failed = true
						return
					}
					fileAcked = []byte(v)
				}
				appendRec(recs[0])
				appendRec(recs[1])
				appendRec(recs[2])
				writeFile("version one")
				if l != nil {
					acked = nil
					if err := l.Reset(); err != nil {
						failed, latched = true, true
					}
				}
				appendRec(recs[3])
				appendRec(recs[4])
				writeFile("version two, longer")
				if l != nil {
					if err := l.Close(); err != nil {
						failed = true
					}
				}

				if fault == "" && failed {
					t.Fatal("fault-free run failed")
				}
				if fatal := fault != "" && fault != faultfs.SyncDir; fatal != failed {
					t.Errorf("fault %q: surfaced an error = %v, want %v", fault, failed, fatal)
				}

				got, _ := recoverAll(t, logPath, fr)
				next := 0
				for _, g := range got {
					for next < len(recs) && !bytes.Equal(recs[next], g) {
						next++
					}
					if next == len(recs) {
						t.Fatalf("recovered %q, which is not a whole record written in order", g)
					}
					next++
				}
				// The acknowledged records are a contiguous run of what was
				// recovered; a whole record whose fsync failed may follow it.
				at := 0
				for len(acked) > 0 && at < len(got) && !bytes.Equal(got[at], acked[0]) {
					at++
				}
				for i, a := range acked {
					if at+i >= len(got) || !bytes.Equal(got[at+i], a) {
						t.Fatalf("acknowledged %q not recovered (have %q)", a, got)
					}
				}
				onDisk, err := os.ReadFile(filePath)
				if err != nil && !(os.IsNotExist(err) && fileAcked == nil) {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, fileAcked) {
					t.Errorf("file holds %q, last acknowledged version is %q", onDisk, fileAcked)
				}
				entries, _ := os.ReadDir(dir)
				for _, e := range entries {
					if strings.Contains(e.Name(), ".tmp-") {
						t.Errorf("temporary %s left behind", e.Name())
					}
				}
			})
		})
	}
}

// TestOpSequence pins what each primitive costs: the syscall sequence is
// part of the contract (one write and one fsync per record).
func TestOpSequence(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.New()
	l, err := durable.OpenLog(fsys, filepath.Join(dir, "x.log"), durable.CRC, false)
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, do func() error, want ...faultfs.Op) {
		t.Helper()
		fsys.Reset()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fsys.Ops(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	step("Append", func() error { return l.Append([]byte("rec")) }, faultfs.Write, faultfs.Sync)
	step("Reset", l.Reset, faultfs.Close, faultfs.Open)
	step("WriteFile", func() error {
		return durable.WriteFile(fsys, filepath.Join(dir, "x.snap"), func(w io.Writer) error {
			_, err := w.Write([]byte("snap"))
			return err
		})
	}, faultfs.CreateTemp, faultfs.Write, faultfs.Sync, faultfs.Close, faultfs.Rename, faultfs.SyncDir)
	step("Close", l.Close, faultfs.Close)
	step("Recover of an intact log", func() error {
		_, _, err := durable.Recover(fsys, filepath.Join(dir, "x.log"), durable.CRC, func([]byte) bool { return true })
		return err
	})
	if err := os.WriteFile(filepath.Join(dir, "x.log"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	step("Recover of a torn log", func() error {
		_, _, err := durable.Recover(fsys, filepath.Join(dir, "x.log"), durable.CRC, func([]byte) bool { return true })
		return err
	}, faultfs.Open, faultfs.Truncate, faultfs.Sync, faultfs.Close)
}
