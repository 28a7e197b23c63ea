// Package perfprof is the process's wall-clock phase profiler: nested phase
// spans aggregated into a phase tree (count, cumulative and self time,
// wall-time quantiles) that feeds the /debug/unico/phases route and
// cmd/unicobench baselines.
//
// The package exists in large part because of the detclock invariant: the
// deterministic search packages (core, mobo, sh, gp, mapsearch, ...) may not
// reference the wall clock at all, not even under a suppression comment.
// Every wall-clock read therefore lives here, behind an API the strict
// packages can call: a span observes wall time on End. The profiler is
// process-wide, so it never enters a run's artifacts; a flight record charges
// an iteration in simulated hours instead.
//
// Nesting is carried through context.Context: Start returns a derived
// context whose spans become children ("iteration/sh.rung/mapsearch.advance").
// Begin opens a root-level phase for call sites with no context (gp fits).
// The profiler is observation-only: it never influences search decisions,
// verified by the existing bit-identity determinism tests.
package perfprof

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unico/internal/telemetry"
)

// Separator joins parent and child phase names into a path.
const Separator = "/"

// phaseBuckets are the per-profiler quantile buckets (seconds): leaf spans
// are sub-microsecond, iteration spans can reach minutes.
var phaseBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// phase accumulates one path's observations.
type phase struct {
	count   uint64
	wall    float64 // cumulative wall seconds
	maxWall float64
	hist    *telemetry.Histogram // standalone, for p50/p95
}

// Profiler aggregates phase observations. All methods are safe for
// concurrent use. The zero value is not usable; call New.
type Profiler struct {
	mu     sync.Mutex
	phases map[string]*phase
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{phases: map[string]*phase{}}
}

// active is the process-wide profiler. It is never nil, so every call site
// records without a nil check.
var active atomic.Pointer[Profiler]

func init() { active.Store(New()) }

// Active returns the process-wide profiler (never nil).
func Active() *Profiler { return active.Load() }

// SetActive installs p as the process-wide profiler and returns a function
// restoring the previous one — for benches and tests that want a private
// aggregation window.
func SetActive(p *Profiler) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// ctxKey carries the parent phase path through a context.
type ctxKey struct{}

// Span is one open phase observation. A nil *Span is valid: End is a no-op,
// so call sites need no nil checks. Spans are not safe for concurrent use;
// each belongs to the goroutine that opened it.
type Span struct {
	p     *Profiler
	path  string
	start time.Time
	done  bool
}

// Start opens a nested phase span: the returned context carries the new
// path so spans opened under it become children. End the span to record.
func (p *Profiler) Start(ctx context.Context, name string) (context.Context, *Span) {
	path := name
	if parent, _ := ctx.Value(ctxKey{}).(string); parent != "" {
		path = parent + Separator + name
	}
	return context.WithValue(ctx, ctxKey{}, path), p.open(path)
}

func (p *Profiler) open(path string) *Span {
	return &Span{p: p, path: path,
		start: time.Now()} //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
}

// Begin opens a root-level phase span for call sites with no context to
// thread (gp fits, mobo internals). Idiom: defer p.Begin("gp.fit").End()
func (p *Profiler) Begin(name string) *Span { return p.open(name) }

// End closes the span and records it, returning the wall seconds recorded —
// how a call site feeds a latency histogram without reading the clock itself.
// Safe on nil spans; a second End is a no-op returning 0, and a span never
// ended records nothing.
func (s *Span) End() float64 {
	if s == nil || s.done {
		return 0
	}
	s.done = true
	wall := time.Since(s.start).Seconds() //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
	s.p.record(s.path, wall)
	return wall
}

// Timer measures an interval for call sites that decide the phase name only
// at the end (an evalcache lookup is a "hit" or a "miss" after the fact).
// Timers observe against the profiler that was Active at creation.
type Timer struct {
	p     *Profiler
	start time.Time
}

// NewTimer starts a timer against the active profiler.
func NewTimer() Timer {
	return Timer{p: Active(),
		start: time.Now()} //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
}

// ObserveAs records the elapsed wall time as one observation of path.
func (t Timer) ObserveAs(path string) {
	if t.p == nil {
		return
	}
	t.p.record(path, time.Since(t.start).Seconds()) //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
}

func (p *Profiler) record(path string, wall float64) {
	p.mu.Lock()
	ph := p.phases[path]
	if ph == nil {
		ph = &phase{hist: telemetry.NewHistogram(phaseBuckets)}
		p.phases[path] = ph
	}
	ph.count++
	ph.wall += wall
	if wall > ph.maxWall {
		ph.maxWall = wall
	}
	hist := ph.hist
	p.mu.Unlock()

	hist.Observe(wall)
}

// PhaseStat is one phase's full report line. Self time is cumulative time
// minus the cumulative time of direct children in the path tree; phases
// recorded through Begin (no context) are their own roots, so overlapping
// flat phases (gp.fit_auto under mobo.suggest) each report their full time.
type PhaseStat struct {
	Path            string  `json:"path"`
	Count           uint64  `json:"count"`
	WallSeconds     float64 `json:"wall_seconds"`
	SelfWallSeconds float64 `json:"self_wall_seconds"`
	P50Seconds      float64 `json:"p50_seconds"`
	P95Seconds      float64 `json:"p95_seconds"`
	MaxSeconds      float64 `json:"max_seconds"`
}

// Report returns every phase sorted by path, with
// self times computed over the path tree and wall-time quantiles from the
// per-phase histogram.
func (p *Profiler) Report() []PhaseStat {
	p.mu.Lock()
	paths := make([]string, 0, len(p.phases))
	for path := range p.phases {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	stats := make([]PhaseStat, len(paths))
	childWall := map[string]float64{}
	for i, path := range paths {
		ph := p.phases[path]
		stats[i] = PhaseStat{
			Path:        path,
			Count:       ph.count,
			WallSeconds: ph.wall,
			P50Seconds:  ph.hist.Quantile(0.50),
			P95Seconds:  ph.hist.Quantile(0.95),
			MaxSeconds:  ph.maxWall,
		}
		if parent, ok := directParent(path); ok {
			childWall[parent] += ph.wall
		}
	}
	p.mu.Unlock()
	for i := range stats {
		stats[i].SelfWallSeconds = stats[i].WallSeconds - childWall[stats[i].Path]
	}
	return stats
}

// directParent returns the path's immediate ancestor ("a/b" for "a/b/c").
func directParent(path string) (string, bool) {
	i := strings.LastIndex(path, Separator)
	if i < 0 {
		return "", false
	}
	return path[:i], true
}

// Package-level conveniences against the active profiler.

// Start opens a nested span on the active profiler.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return Active().Start(ctx, name)
}

// Begin opens a root-level span on the active profiler.
func Begin(name string) *Span { return Active().Begin(name) }
