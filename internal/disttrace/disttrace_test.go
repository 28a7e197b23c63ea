package disttrace

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unico/internal/runid"
)

// enable installs a recorder for the test and restores the previous state
// (tracing off) afterwards.
func enable(t *testing.T, path, proc string) *Recorder {
	t.Helper()
	rec, err := NewRecorder(path, proc)
	if err != nil {
		t.Fatal(err)
	}
	prev := Active()
	Enable(rec)
	t.Cleanup(func() {
		Enable(prev)
		rec.Close()
	})
	return rec
}

func TestDisabledTracingIsInert(t *testing.T) {
	prev := Active()
	Enable(nil)
	defer Enable(prev)
	s := StartSpan("run-1", SpanContext{}, "client", "/v1/ppa")
	if s != nil {
		t.Fatalf("StartSpan with tracing disabled = %v, want nil", s)
	}
	s.End("ok", nil) // must not panic
	if sc := s.Context(); sc.Valid() {
		t.Errorf("nil span context = %+v, want zero", sc)
	}
	ctx := runid.With(context.Background(), "run-1")
	ictx, it := BeginIteration(ctx, BeginRun(), 3)
	it.End("ok", nil)
	if it != nil || ictx != ctx || Parent(ictx).Valid() {
		t.Errorf("BeginIteration with tracing disabled = %v, parent %+v; want the ctx unchanged and a nil span", it, Parent(ictx))
	}
}

// TestRecorderNeedsALog: a recorder keeps no events but its log's, so one
// without a log path is refused rather than recording nothing.
func TestRecorderNeedsALog(t *testing.T) {
	if r, err := NewRecorder("", "client"); err == nil || r != nil {
		t.Fatalf("NewRecorder without a path = %v, %v; want an error", r, err)
	}
}

func TestRecorderWritesDurableSpanLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	enable(t, path, "client")
	parent := StartSpan("run-7", SpanContext{}, "client", "/v1/ppa")
	child := StartSpan("", parent.Context(), "attempt", "/v1/ppa")
	child.End("ok", nil)
	parent.End("ok", map[string]string{"attempts": "1"})
	// The file is fsynced per event — readable without Close.
	events, skipped, err := LoadFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) != 4 {
		t.Fatalf("got %d events, %d skipped; want 4, 0", len(events), skipped)
	}
	traces := BuildTraces(events)
	if len(traces) != 1 || traces[0].ID != "run-7" {
		t.Fatalf("traces: %+v", traces)
	}
	tr := traces[0]
	if inc := Analyze(tr).Summary.IncompleteSpans; len(tr.Spans) != 2 || len(tr.Orphans) != 0 || inc != 0 {
		t.Fatalf("spans=%d orphans=%d incomplete=%d; want 2, 0, 0",
			len(tr.Spans), len(tr.Orphans), inc)
	}
	if len(tr.Roots) != 1 || len(tr.Roots[0].Children) != 1 {
		t.Fatalf("tree shape: roots=%d", len(tr.Roots))
	}
	if got := tr.Roots[0].Attrs["attempts"]; got != "1" {
		t.Errorf("root attrs = %v", tr.Roots[0].Attrs)
	}
}

// TestLoadFilesCountsOverlapOnce: a per-process log merged with a pull of
// the same spans (plus a repeat inside one file) keeps each (span, ev) pair
// once, and every dropped line counts as skipped, wherever it repeats.
func TestLoadFilesCountsOverlapOnce(t *testing.T) {
	dir := t.TempDir()
	start := `{"ev":"start","trace":"r","span":"a","kind":"client","name":"/v1/ppa","t_us":10}`
	end := `{"ev":"end","trace":"r","span":"a","t_us":20,"status":"ok"}`
	local := filepath.Join(dir, "client.jsonl")
	pulled := filepath.Join(dir, "pulled.jsonl")
	if err := os.WriteFile(local, []byte(start+"\n"+start+"\n"+end+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pulled, []byte(start+"\n"+end+"\n"+"torn{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := LoadFiles(local, pulled)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || skipped != 4 {
		t.Fatalf("got %d events, %d skipped; want 2 events and 4 skipped (1 repeat in-file, 2 across files, 1 torn)",
			len(events), skipped)
	}
}

// TestKillYieldsIncompleteNeverOrphan is the core durability contract: a
// parent's start event is on disk before any child starts, so truncating
// the log at any line boundary (what kill -9 leaves behind) produces
// incomplete spans but never an orphan.
func TestKillYieldsIncompleteNeverOrphan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	enable(t, path, "client")
	p := StartSpan("run-9", SpanContext{}, "client", "/v1/ppa")
	c := StartSpan("", p.Context(), "attempt", "/v1/ppa")
	g := StartSpan("", c.Context(), "shard", "/v1/ppa")
	g.End("ok", nil)
	c.End("ok", nil)
	p.End("ok", nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	for cut := 0; cut <= len(lines); cut++ {
		head := strings.Join(lines[:cut], "\n")
		// Simulate a torn final line too: chop the last line in half.
		for _, input := range []string{head, head + "\n" + `{"ev":"sta`} {
			events, _, err := ParseEvents(strings.NewReader(input))
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range BuildTraces(events) {
				if len(tr.Orphans) != 0 {
					t.Fatalf("cut=%d: %d orphans; kill must only yield incomplete spans", cut, len(tr.Orphans))
				}
			}
		}
	}
}

func TestBuildTracesFlagsOrphans(t *testing.T) {
	events := []Event{
		{Ev: "start", Trace: "r", Span: "a", Kind: "client", Name: "/v1/ppa", TimeUS: 10},
		{Ev: "start", Trace: "r", Span: "b", Parent: "missing", Kind: "shard", TimeUS: 20},
		{Ev: "end", Trace: "r", Span: "b", TimeUS: 30, Status: "ok"},
		{Ev: "end", Trace: "r", Span: "ghost", TimeUS: 40, Status: "ok"}, // end without start
	}
	tr := BuildTraces(events)[0]
	if len(tr.Orphans) != 2 {
		t.Fatalf("orphans = %d, want 2 (dangling parent + end-without-start)", len(tr.Orphans))
	}
	if inc := Analyze(tr).Summary.IncompleteSpans; inc != 1 {
		t.Fatalf("incomplete = %d, want 1 (span a)", inc)
	}
}

func TestAnalyzeChainsAndPhases(t *testing.T) {
	// A routed eval: client(100µs..900µs) > attempt > queue+forward > shard > engine,
	// and a failed client call with no chain (allowed: it did not end ok).
	events := []Event{
		{Ev: "start", Trace: "r", Span: "cl", Kind: "client", Name: "/v1/ppa", TimeUS: 100},
		{Ev: "start", Trace: "r", Span: "at", Parent: "cl", Kind: "attempt", Name: "/v1/ppa", TimeUS: 110},
		{Ev: "start", Trace: "r", Span: "qu", Parent: "at", Kind: "queue", TimeUS: 120},
		{Ev: "end", Trace: "r", Span: "qu", TimeUS: 220, Status: "ok"},
		{Ev: "start", Trace: "r", Span: "fw", Parent: "at", Kind: "forward", TimeUS: 220},
		{Ev: "start", Trace: "r", Span: "sh", Parent: "fw", Kind: "shard", Name: "/v1/ppa", TimeUS: 240},
		{Ev: "start", Trace: "r", Span: "en", Parent: "sh", Kind: "engine", Name: "maestro", TimeUS: 250},
		{Ev: "end", Trace: "r", Span: "en", TimeUS: 750, Status: "ok"},
		{Ev: "end", Trace: "r", Span: "sh", TimeUS: 760, Status: "ok"},
		{Ev: "end", Trace: "r", Span: "fw", TimeUS: 800, Status: "ok"},
		{Ev: "end", Trace: "r", Span: "at", TimeUS: 880, Status: "ok"},
		{Ev: "end", Trace: "r", Span: "cl", TimeUS: 900, Status: "ok"},
		{Ev: "start", Trace: "r", Span: "cl2", Kind: "client", Name: "/v1/ppa", TimeUS: 1000},
		{Ev: "end", Trace: "r", Span: "cl2", TimeUS: 1100, Status: "error"},
	}
	a := Analyze(BuildTraces(events)[0])
	s := a.Summary
	if s.Evals != 2 || s.CompleteChains != 1 || s.IncompleteChains != 0 {
		t.Fatalf("evals=%d complete=%d incomplete=%d; want 2, 1, 0", s.Evals, s.CompleteChains, s.IncompleteChains)
	}
	if s.Orphans != 0 {
		t.Fatalf("orphans = %d", s.Orphans)
	}
	// Self-time decomposition: engine 500µs, queue 100µs; client self =
	// 800 - 770 (attempt) ... every kind's self time sums to total wall.
	wantPhases := map[string]float64{
		"client": 130e-6, "attempt": 90e-6, "queue": 100e-6,
		"forward": 60e-6, "shard": 20e-6, "engine": 500e-6,
	}
	for kind, want := range wantPhases {
		if got := s.PhaseSeconds[kind]; !close6(got, want) {
			t.Errorf("phase %q = %v, want %v", kind, got, want)
		}
	}
	if !close6(s.QueueWaitP50, 100e-6) || !close6(s.QueueWaitP99, 100e-6) {
		t.Errorf("queue percentiles p50=%v p99=%v, want 100µs", s.QueueWaitP50, s.QueueWaitP99)
	}
	// Critical path of the ok eval descends by max child duration.
	got := a.Evals[0].CriticalPath
	wantKinds := []string{"client", "attempt", "forward", "shard", "engine"}
	if len(got) != len(wantKinds) {
		t.Fatalf("critical path %v", got)
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("critical path step %d = %q, want %q (full: %v)", i, got[i].Kind, k, got)
		}
	}
}

// TestAnalyzeIncompleteChain: an ok client span without an engine
// descendant is the gate-failing case (a shard span log went missing).
func TestAnalyzeIncompleteChain(t *testing.T) {
	events := []Event{
		{Ev: "start", Trace: "r", Span: "cl", Kind: "client", Name: "/v1/jobs/advance", TimeUS: 10},
		{Ev: "end", Trace: "r", Span: "cl", TimeUS: 50, Status: "ok"},
	}
	a := Analyze(BuildTraces(events)[0])
	if a.Summary.IncompleteChains != 1 || a.Summary.CompleteChains != 0 {
		t.Fatalf("summary %+v; want one incomplete chain", a.Summary)
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	h := http.Header{}
	Inject(h, SpanContext{Trace: "run-1", Span: "s1"})
	if got := Extract(h); got != (SpanContext{Trace: "run-1", Span: "s1"}) {
		t.Fatalf("Extract = %+v", got)
	}
	// Zero context injects nothing.
	h2 := http.Header{}
	Inject(h2, SpanContext{})
	if len(h2) != 0 {
		t.Fatalf("zero inject wrote headers: %v", h2)
	}
	// Run-ID fallback: trace from X-Unico-Run-ID, no parent.
	h3 := http.Header{}
	h3.Set(runid.Header, "run-2")
	if got := Extract(h3); got.Trace != "run-2" || got.Span != "" {
		t.Fatalf("run-ID fallback = %+v", got)
	}
}

func TestIterationSpanIDsDeterministic(t *testing.T) {
	enable(t, filepath.Join(t.TempDir(), "spans.jsonl"), "client")
	ctx := runid.With(context.Background(), "run-det")
	run := BeginRun()
	ictx, it := BeginIteration(ctx, run, 4)
	id := it.Context().Span
	if id != IterationSpanID(run, 4) || !strings.HasSuffix(id, "-it4") {
		t.Fatalf("iteration span ID %q", id)
	}
	// The parent rides the iteration's context and nothing else: the run's
	// own context — and any other run's — sees none.
	if got := Parent(ictx); got.Span != id || got.Trace != "run-det" {
		t.Fatalf("Parent under the iteration = %+v", got)
	}
	if got := Parent(ctx); got.Valid() {
		t.Fatalf("Parent outside the iteration = %+v, want zero", got)
	}
	it.End("ok", nil)
	// A second run derives a distinct deterministic prefix, and a context
	// without a run ID opens no span.
	if id2 := IterationSpanID(BeginRun(), 4); id2 == id {
		t.Fatalf("run 2 iteration ID %q collides with run 1", id2)
	}
	if _, it := BeginIteration(context.Background(), run, 5); it != nil {
		t.Fatalf("BeginIteration without a run ID opened %+v", it.Context())
	}
}

func close6(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
