package perfprof

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unico/internal/simclock"
	"unico/internal/telemetry"
)

// window drains p's phase window and indexes it by path.
func window(p *Profiler) map[string]PhaseDelta {
	out := map[string]PhaseDelta{}
	for _, d := range p.TakeWindow() {
		out[d.Path] = d
	}
	return out
}

func TestSpanNestingBuildsPaths(t *testing.T) {
	p := New()
	ctx, outer := p.Start(context.Background(), "iteration")
	ctx2, mid := p.Start(ctx, "sh.rung")
	_, leaf := p.Start(ctx2, "mapsearch.advance")
	leaf.End()
	mid.End()
	outer.End()

	tot := window(p)
	for _, want := range []string{
		"iteration",
		"iteration/sh.rung",
		"iteration/sh.rung/mapsearch.advance",
	} {
		if tot[want].Count != 1 {
			t.Errorf("phase %q count = %d, want 1 (totals: %v)", want, tot[want].Count, tot)
		}
	}
}

func TestClockedSpanRecordsSimDelta(t *testing.T) {
	p := New()
	c := &simclock.Clock{}
	_, s := p.StartClocked(context.Background(), "sh.rung", c)
	c.Advance(42)
	s.End()
	got := window(p)["sh.rung"]
	if got.SimSeconds != 42 {
		t.Fatalf("sim seconds = %v, want 42", got.SimSeconds)
	}
}

// TestClockedSpanWritesItsTraceEvent: under a context carrying a tracer, a
// clocked span is the site's one bracket — ending it records the phase and
// writes the Chrome event, named after the phase, on the simulated timeline,
// with the End arguments and the wall milliseconds. Unclocked spans (which
// run in parallel and hold no clock) and spans under no tracer write nothing.
func TestClockedSpanWritesItsTraceEvent(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	p := New()
	c := &simclock.Clock{}
	c.Advance(3600)
	ctx := WithTracer(context.Background(), tr)
	if Tracer(ctx) != tr || Tracer(context.Background()) != nil {
		t.Fatal("Tracer(ctx) does not return what WithTracer attached")
	}

	ictx, iter := p.StartClocked(ctx, "iteration", c)
	rctx, rung := p.StartClocked(ictx, "sh.rung", c)
	if Tracer(rctx) != tr {
		t.Fatal("a span's context lost the tracer")
	}
	_, leaf := p.Start(rctx, "mapsearch.advance")
	leaf.End()
	c.Advance(1800)
	rung.EndWith(map[string]any{"rung": 1})
	iter.End()
	_, bare := p.StartClocked(context.Background(), "iteration", c)
	bare.EndWith(map[string]any{"dropped": true})
	tr.Flush()

	type event struct {
		Name string         `json:"name"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	var got []event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] { // [0] is the process_name record
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Name != "sh.rung" || got[1].Name != "iteration" {
		t.Fatalf("trace events %+v, want sh.rung then iteration and nothing else", got)
	}
	for _, ev := range got {
		if ev.TS != 3600e6 || ev.Dur != 1800e6 || ev.Args["sim_hours"] != 1.5 {
			t.Errorf("%s: ts %v dur %v sim_hours %v, want simulated 1 h .. 1.5 h", ev.Name, ev.TS, ev.Dur, ev.Args["sim_hours"])
		}
		if _, ok := ev.Args["real_ms"].(float64); !ok {
			t.Errorf("%s: no real_ms in %v", ev.Name, ev.Args)
		}
	}
	if got[0].Args["rung"] != 1.0 {
		t.Errorf("sh.rung args %v lost the EndWith argument", got[0].Args)
	}
	// Both brackets fed the phase tree as well, tracer or not.
	if tot := window(p); tot["iteration"].Count != 2 || tot["iteration/sh.rung"].SimSeconds != 1800 {
		t.Errorf("phase totals %v", tot)
	}
}

func TestNilAndDoubleEndAreSafe(t *testing.T) {
	var s *Span
	s.End() // nil-safe

	p := New()
	_, sp := p.Start(context.Background(), "x")
	sp.End()
	sp.End() // second End is a no-op
	if got := window(p)["x"].Count; got != 1 {
		t.Fatalf("count after double End = %d, want 1", got)
	}
}

func TestVolatilePhasesExcludedFromTotalsButReported(t *testing.T) {
	p := New()
	restore := SetActive(p)
	defer restore()

	NewTimer().ObserveVolatileAs("x.volatile")
	Begin("x.normal").End()

	// The deterministic totals a flight record takes (TakeWindow) leave the
	// volatile phase out.
	if ds := p.TakeWindow(); len(ds) != 1 || ds[0].Path != "x.normal" || ds[0].Count != 1 {
		t.Errorf("TakeWindow = %+v, want only x.normal, once", ds)
	}

	var paths []string
	for _, s := range p.Report() {
		paths = append(paths, s.Path)
	}
	want := []string{"x.normal", "x.volatile"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("Report paths = %v, want %v", paths, want)
	}
}

func TestReportSelfTimeSubtractsDirectChildren(t *testing.T) {
	p := New()
	// Drive accumulators directly: parent 10s wall, child 4s, grandchild 1s.
	p.record("a", 10, 20, false)
	p.record("a/b", 4, 8, false)
	p.record("a/b/c", 1, 2, false)

	byPath := map[string]PhaseStat{}
	for _, s := range p.Report() {
		byPath[s.Path] = s
	}
	if got := byPath["a"].SelfWallSeconds; got != 6 {
		t.Errorf("a self wall = %v, want 6", got)
	}
	if got := byPath["a"].SelfSimSeconds; got != 12 {
		t.Errorf("a self sim = %v, want 12", got)
	}
	if got := byPath["a/b"].SelfWallSeconds; got != 3 {
		t.Errorf("a/b self wall = %v, want 3", got)
	}
	if got := byPath["a/b/c"].SelfWallSeconds; got != 1 {
		t.Errorf("a/b/c self wall = %v, want 1", got)
	}
}

// TestConcurrentSpans exercises span creation/ending and reads from many
// goroutines; run under -race this proves the profiler's locking.
func TestConcurrentSpans(t *testing.T) {
	p := New()
	c := &simclock.Clock{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, outer := p.Start(context.Background(), "iteration")
				_, inner := p.StartClocked(ctx, "sh.rung", c)
				inner.End()
				outer.End()
				p.Begin("gp.predict").End()
				if i%50 == 0 {
					p.Report()
				}
			}
		}(g)
	}
	wg.Wait()

	tot := window(p)
	if got := tot["iteration"].Count; got != 8*200 {
		t.Errorf("iteration count = %d, want %d", got, 8*200)
	}
	if got := tot["iteration/sh.rung"].Count; got != 8*200 {
		t.Errorf("nested count = %d, want %d", got, 8*200)
	}
	if got := tot["gp.predict"].Count; got != 8*200 {
		t.Errorf("gp.predict count = %d, want %d", got, 8*200)
	}
}

func TestActiveNeverNilAndRestore(t *testing.T) {
	if Active() == nil {
		t.Fatal("Active() returned nil")
	}
	p := New()
	restore := SetActive(p)
	if Active() != p {
		t.Fatal("SetActive did not install profiler")
	}
	restore()
	if Active() == p {
		t.Fatal("restore did not reinstate previous profiler")
	}
}

// TestTakeWindowExactness: windowed deltas restart at zero, so identical
// work yields bit-identical deltas regardless of prior accumulation — the
// property flight-record kill/resume identity rests on.
func TestTakeWindowExactness(t *testing.T) {
	work := func(p *Profiler) []PhaseDelta {
		p.TakeWindow()
		for i := 0; i < 3; i++ {
			p.record("sh.rung", 0, 16.8, false)
		}
		p.record("update", 0, 5, false)
		return p.TakeWindow()
	}

	fresh := New()
	first := work(fresh)

	polluted := New()
	// Accumulate a large, odd prior total so cumulative-difference schemes
	// would lose ulps.
	for i := 0; i < 1000; i++ {
		polluted.record("sh.rung", 0, 0.1, false)
	}
	second := work(polluted)

	if !reflect.DeepEqual(first, second) {
		t.Errorf("windowed deltas differ under prior accumulation:\nfresh    %+v\npolluted %+v", first, second)
	}
	if len(first) != 2 || first[0].Path != "sh.rung" || first[0].Count != 3 {
		t.Errorf("unexpected window contents: %+v", first)
	}
	// A drained window is empty until new activity arrives.
	if again := fresh.TakeWindow(); len(again) != 0 {
		t.Errorf("second TakeWindow = %+v, want empty", again)
	}
}
