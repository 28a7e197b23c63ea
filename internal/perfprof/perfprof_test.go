package perfprof

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// report indexes p's phase report by path.
func report(p *Profiler) map[string]PhaseStat {
	out := map[string]PhaseStat{}
	for _, s := range p.Report() {
		out[s.Path] = s
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

	tot := report(p)
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

func TestNilAndDoubleEndAreSafe(t *testing.T) {
	var s *Span
	s.End() // nil-safe

	p := New()
	_, sp := p.Start(context.Background(), "x")
	sp.End()
	sp.End() // second End is a no-op
	if got := report(p)["x"].Count; got != 1 {
		t.Fatalf("count after double End = %d, want 1", got)
	}
}

// TestTimerObservesOnActiveProfiler: a Timer records against the profiler
// that was active when it started, under the name given at the end.
func TestTimerObservesOnActiveProfiler(t *testing.T) {
	p := New()
	restore := SetActive(p)
	timer := NewTimer()
	restore()
	Begin("x.elsewhere").End() // the previous profiler, not p
	timer.ObserveAs("x.timed")
	timer.ObserveAs("x.timed")

	var paths []string
	for _, s := range p.Report() {
		paths = append(paths, s.Path)
	}
	if want := []string{"x.timed"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("Report paths = %v, want %v", paths, want)
	}
	if got := report(p)["x.timed"].Count; got != 2 {
		t.Errorf("x.timed count = %d, want 2", got)
	}
	Timer{}.ObserveAs("x.none") // the zero Timer records nothing
}

func TestReportSelfTimeSubtractsDirectChildren(t *testing.T) {
	p := New()
	// Drive accumulators directly: parent 10s wall, child 4s, grandchild 1s.
	p.record("a", 10)
	p.record("a/b", 4)
	p.record("a/b/c", 1)

	byPath := map[string]PhaseStat{}
	for _, s := range p.Report() {
		byPath[s.Path] = s
	}
	if got := byPath["a"].SelfWallSeconds; got != 6 {
		t.Errorf("a self wall = %v, want 6", got)
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, outer := p.Start(context.Background(), "iteration")
				_, inner := p.Start(ctx, "sh.rung")
				inner.End()
				outer.End()
				p.Begin("gp.fit").End()
				if i%50 == 0 {
					p.Report()
				}
			}
		}(g)
	}
	wg.Wait()

	tot := report(p)
	if got := tot["iteration"].Count; got != 8*200 {
		t.Errorf("iteration count = %d, want %d", got, 8*200)
	}
	if got := tot["iteration/sh.rung"].Count; got != 8*200 {
		t.Errorf("nested count = %d, want %d", got, 8*200)
	}
	if got := tot["gp.fit"].Count; got != 8*200 {
		t.Errorf("gp.fit count = %d, want %d", got, 8*200)
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
