package evalcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unico/internal/durable/faultfs"
	"unico/internal/ppa"
	"unico/internal/telemetry"
)

// TestSaveFileFaultMatrix breaks SaveFile at every filesystem operation
// while an older warm-start file is in place. A failed save returns an
// error, leaves the older file loading exactly as before and leaves no
// temporary behind; a failed directory fsync alone stays non-fatal.
func TestSaveFileFaultMatrix(t *testing.T) {
	c, m, l := testTriple()
	faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cache.jsonl")
		cache := New(0)
		for n := 1; n <= 3; n++ {
			if n == 3 {
				if err := cache.SaveFile(path); err != nil { // the older file: two entries
					t.Fatal(err)
				}
			}
			l.N = n
			cache.put(&entry{key: SpatialKey(c, m, l), engine: EngineMaestro, met: ppa.Metrics{LatencyMs: float64(n)}})
		}
		err := cache.saveFile(fsys, path)
		if want := fault != "" && fault != faultfs.SyncDir; (err != nil) != want {
			t.Errorf("fault %q: saveFile = %v, want error = %v", fault, err, want)
		}
		want := 3
		if err != nil {
			want = 2
		}
		if n, lerr := New(0).LoadFile(path); n != want || lerr != nil {
			t.Errorf("after saveFile = %v the file loads %d entries (%v), want %d", err, n, lerr, want)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 {
			t.Errorf("directory holds %d files after the save, want only the cache file", len(entries))
		}
	})
}

// TestLoadFileSkipsOverlongLine: a line past the old 1 MiB scanner cap used
// to abort the whole warm start with bufio.ErrTooLong; it is now skipped
// and counted like any other bad line, and the entries around it load.
func TestLoadFileSkipsOverlongLine(t *testing.T) {
	c, m, l := testTriple()
	src := New(0)
	src.put(&entry{key: SpatialKey(c, m, l), engine: EngineMaestro, met: ppa.Metrics{LatencyMs: 1}})
	var good bytes.Buffer
	if err := src.WriteJSONL(&good); err != nil {
		t.Fatal(err)
	}
	l.N = 2
	src2 := New(0)
	src2.put(&entry{key: SpatialKey(c, m, l), engine: EngineMaestro, met: ppa.Metrics{LatencyMs: 2}})
	var good2 bytes.Buffer
	if err := src2.WriteJSONL(&good2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	content := good.String() + strings.Repeat("x", 2<<20) + "\n" + good2.String()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	before := telemetry.EvalCacheSkippedLines().Value()
	n, err := New(0).LoadFile(path)
	if n != 2 || err != nil {
		t.Fatalf("LoadFile = %d, %v; want both entries around the over-long line", n, err)
	}
	if got := telemetry.EvalCacheSkippedLines().Value() - before; got != 1 {
		t.Errorf("skipped-line counter advanced by %d, want 1", got)
	}
}

// FuzzReadJSONL: the cache-file decoder must never panic, must store only
// whole well-formed entries (everything it stored survives a write/read
// round trip), and stored + skipped must account for every non-blank line.
func FuzzReadJSONL(f *testing.F) {
	c, m, l := testTriple()
	key := SpatialKey(c, m, l).String()
	f.Add([]byte(`{"k":"` + key + `","e":"maestro","m":{"latency_ms":1}}` + "\n"))
	f.Add([]byte(`{"k":"` + key + `","e":"maestro","inf":true,"err":"does not fit"}` + "\n" + `{"k":"` + key + `","e":"maes`))
	f.Add([]byte("not json\n\n{\"k\":\"zz\",\"m\":{}}\n{\"k\":\"" + key + "\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := telemetry.EvalCacheSkippedLines().Value()
		cache := New(0)
		n, err := cache.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		skipped := int(telemetry.EvalCacheSkippedLines().Value() - before)
		lines := 0
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if n+skipped != lines || int(cache.size.Load()) > n {
			t.Fatalf("%d non-blank lines, but %d stored (%d distinct) + %d skipped", lines, n, int(cache.size.Load()), skipped)
		}
		var out bytes.Buffer
		if err := cache.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		if back, err := New(0).ReadJSONL(&out); err != nil || back != int(cache.size.Load()) {
			t.Fatalf("stored entries do not round-trip: %d of %d (%v)", back, int(cache.size.Load()), err)
		}
	})
}
