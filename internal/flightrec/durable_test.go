package flightrec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unico/internal/durable/faultfs"
)

// TestFaultMatrix breaks the recorder at every filesystem operation of a
// create / record / kill / resume / record / finish script. Whatever fails:
// every iteration recorded while Err() was nil is in the artifact, every
// iteration in the artifact is whole, and the failure is reported by
// Create/Resume, Err or Finish.
func TestFaultMatrix(t *testing.T) {
	faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		acked := map[int]bool{}
		failed := func() bool {
			record := func(r *Recorder, iters ...int) {
				for _, i := range iters {
					if r.RecordIteration(testIteration(i)); r.Err() == nil {
						acked[i] = true
					}
				}
			}
			r, err := create(fsys, path, testHeader())
			if err != nil {
				return true
			}
			record(r, 1, 2, 3)
			if r.Close() != nil { // killed: no summary
				return true
			}
			delete(acked, 3) // past the checkpoint boundary: resume drops it on purpose
			r, err = resume(fsys, path, testHeader(), 2)
			if err != nil {
				return true
			}
			record(r, 3, 4)
			return r.Finish(Summary{}) != nil
		}()
		if want := fault != ""; failed != want {
			t.Errorf("fault %q: surfaced an error = %v, want %v", fault, failed, want)
		}
		d, _, err := Load(path)
		if err != nil {
			if len(acked) > 0 {
				t.Fatalf("artifact with acknowledged iterations %v does not load: %v", acked, err)
			}
			return
		}
		for _, it := range d.Iters {
			if want := testIteration(it.Iter); !reflect.DeepEqual(it, withType(want)) {
				t.Errorf("partial or foreign record in the artifact: %+v", it)
			}
			delete(acked, it.Iter)
		}
		if len(acked) > 0 {
			t.Errorf("acknowledged iterations %v missing from the artifact", acked)
		}
		if !failed && (d.Summary == nil || len(d.Iters) != 4) {
			t.Errorf("fault-free artifact: %d iterations, summary %v", len(d.Iters), d.Summary)
		}
	})
}

func withType(it Iteration) Iteration {
	it.Type = TypeIteration
	return it
}

// TestOpSequence pins the cost of one flight line — one write, one fsync —
// and that Resume makes its truncation durable (it used not to fsync it).
func TestOpSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	fsys := faultfs.New()
	r, err := create(fsys, path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	fsys.Reset()
	r.RecordIteration(testIteration(1))
	if got, want := fsys.Ops(), []faultfs.Op{faultfs.Write, faultfs.Sync}; !reflect.DeepEqual(got, want) {
		t.Errorf("RecordIteration = %v, want %v", got, want)
	}
	r.RecordIteration(testIteration(2))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	fsys.Reset()
	r, err = resume(fsys, path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := []faultfs.Op{faultfs.Open, faultfs.Truncate, faultfs.Sync, faultfs.Close, faultfs.Open}
	if got := fsys.Ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("Resume past a dropped iteration = %v, want %v (truncate, then fsync the truncation)", got, want)
	}
}

// TestResumeHeaderlessFileStartsOver: garbage where the header should be is
// not appended to.
func TestResumeHeaderlessFileStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("{\"type\":\"iteration\",\"iter\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(2))
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}
	d, skipped, err := Load(path)
	if err != nil || skipped != 0 || len(d.Iters) != 1 || d.Header.RunID != testHeader().RunID {
		t.Errorf("Load = %+v, %d, %v", d, skipped, err)
	}
}

// FuzzRead: the artifact decoder must never panic and never return a
// record it could not decode whole — every returned iteration and summary
// re-encodes to a line of the input's record count, and skipped accounts
// for the rest.
func FuzzRead(f *testing.F) {
	var good bytes.Buffer
	for _, v := range []any{withHeaderType(testHeader()), withType(testIteration(1)), withType(testIteration(2)), Summary{Type: TypeSummary}} {
		good.WriteString(mustJSON(f, v) + "\n")
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-7])
	f.Add([]byte("{\"type\":\"header\"}\n{\"type\":\"iteration\",\"iter\":\"x\"}\n\n{\"type\":\"mystery\"}\n"))
	f.Add([]byte("{\"type\":\"iteration\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, skipped, err := Read(bytes.NewReader(data))
		if err != nil {
			if d != nil {
				t.Fatalf("error %v alongside data", err)
			}
			return
		}
		lines := 0
		for _, l := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		summaries := 0
		if d.Summary != nil {
			summaries = 1 // a later summary replaces an earlier one
		}
		if got := 1 + len(d.Iters) + summaries + skipped; got > lines || (d.Summary == nil && got != lines) {
			t.Fatalf("%d non-blank lines, but header + %d iterations + %d summary + %d skipped", lines, len(d.Iters), summaries, skipped)
		}
		for _, it := range d.Iters {
			if it.Type != TypeIteration {
				t.Fatalf("non-iteration record returned as an iteration: %+v", it)
			}
		}
	})
}

func withHeaderType(h Header) Header {
	h.Type = TypeHeader
	return h
}
