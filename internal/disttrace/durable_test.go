package disttrace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"unico/internal/durable/faultfs"
)

// TestFaultMatrix breaks the span log at every filesystem operation of a
// parent/child/grandchild trace. Whatever fails: every event emitted while
// the log's latched error was nil is in the log, every event in the log is one that was
// emitted (whole), the log never holds an orphan, and the failure is
// reported by NewRecorder, the log's latched error or Close.
//
// The oracle is the test's own record of each event it caused: every field
// the span calls determine, and for t_us the wall-clock window the call ran
// in, since the recorder reads the clock itself.
func TestFaultMatrix(t *testing.T) {
	type emitted struct {
		ev     Event // TimeUS left zero
		lo, hi int64 // the window TimeUS must fall in
	}
	faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		r, err := newRecorder(fsys, path, "client")
		if err != nil {
			return // surfaced: the caller never gets a recorder
		}
		var oracle []emitted
		acked := 0 // events emitted before the first failure
		record := func(ev Event, lo int64) {
			oracle = append(oracle, emitted{ev, lo, time.Now().UnixMicro()})
			if r.log.Err() == nil {
				acked++
			}
		}
		start := func(trace string, parent *Span, kind string) *Span {
			lo := time.Now().UnixMicro()
			s := r.StartSpan(trace, parent.Context(), kind, "/v1/ppa")
			record(Event{Ev: "start", Trace: "run-1", Span: s.Context().Span, Parent: parent.Context().Span,
				Kind: kind, Name: "/v1/ppa", Proc: "client"}, lo)
			return s
		}
		p := start("run-1", nil, "client")
		c := start("", p, "attempt")
		g := start("", c, "shard")
		for _, s := range []*Span{g, c, p} {
			lo := time.Now().UnixMicro()
			s.End("ok", map[string]string{"k": "v"})
			record(Event{Ev: "end", Trace: "run-1", Span: s.Context().Span, Status: "ok", Attrs: map[string]string{"k": "v"}}, lo)
		}
		failed := r.log.Err() != nil
		if r.Close() != nil {
			failed = true
		}
		if want := fault != ""; failed != want {
			t.Errorf("fault %q: surfaced an error = %v, want %v", fault, failed, want)
		}

		logged, _, err := LoadFiles(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(logged) < acked || len(logged) > len(oracle) {
			t.Fatalf("%d events acknowledged of %d emitted, %d in the log", acked, len(oracle), len(logged))
		}
		for i, ev := range logged {
			want := oracle[i]
			at := ev.TimeUS
			ev.TimeUS = 0
			if !reflect.DeepEqual(ev, want.ev) || at < want.lo || at > want.hi {
				t.Errorf("log event %d = %+v at %d, emitted %+v in [%d, %d]", i, ev, at, want.ev, want.lo, want.hi)
			}
		}
		for _, tr := range BuildTraces(logged) {
			if len(tr.Orphans) != 0 {
				t.Errorf("%d orphans in the log", len(tr.Orphans))
			}
		}
	})
}

// TestOpSequence pins the cost of one span event: one write, one fsync.
func TestOpSequence(t *testing.T) {
	fsys := faultfs.New()
	r, err := newRecorder(fsys, filepath.Join(t.TempDir(), "spans.jsonl"), "client")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fsys.Reset()
	s := r.StartSpan("run-1", SpanContext{}, "client", "/v1/ppa")
	if got, want := fsys.Ops(), []faultfs.Op{faultfs.Write, faultfs.Sync}; !reflect.DeepEqual(got, want) {
		t.Errorf("start event = %v, want %v", got, want)
	}
	fsys.Reset()
	s.End("ok", nil)
	if got, want := fsys.Ops(), []faultfs.Op{faultfs.Write, faultfs.Sync}; !reflect.DeepEqual(got, want) {
		t.Errorf("end event = %v, want %v", got, want)
	}
}

// FuzzParseEvents: the span-log decoder must never panic, must return only
// whole, well-formed, de-duplicated events, and events + skipped must
// account for every non-blank line.
func FuzzParseEvents(f *testing.F) {
	f.Add([]byte(`{"ev":"start","trace":"r","span":"a","t_us":1}` + "\n" + `{"ev":"end","trace":"r","span":"a","t_us":2}` + "\n"))
	f.Add([]byte(`{"ev":"start","trace":"r","span":"a"}` + "\n" + `{"ev":"start","trace":"r","span":"a"}` + "\n" + `{"ev":"sta`))
	f.Add([]byte("\n\n{\"ev\":\"middle\",\"trace\":\"r\",\"span\":\"a\"}\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, skipped, err := ParseEvents(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, l := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		if len(events)+skipped != lines {
			t.Fatalf("%d non-blank lines, but %d events + %d skipped", lines, len(events), skipped)
		}
		seen := map[[2]string]bool{}
		for _, ev := range events {
			if ev.Trace == "" || ev.Span == "" || (ev.Ev != "start" && ev.Ev != "end") {
				t.Fatalf("malformed event returned: %+v", ev)
			}
			if key := [2]string{ev.Span, ev.Ev}; seen[key] {
				t.Fatalf("duplicate event returned: %+v", ev)
			} else {
				seen[key] = true
			}
		}
	})
}
