package perfprof

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"unico/internal/simclock"
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
