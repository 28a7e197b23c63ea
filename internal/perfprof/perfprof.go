// Package perfprof is the deterministic phase-attribution profiler: nested
// phase spans that record both wall-clock and simulated-clock time,
// aggregated into a per-run phase tree (count, cumulative and self time,
// wall-time quantiles) that streams into flight records, the
// /debug/unico/phases route, and cmd/unicobench baselines.
//
// The package exists in large part because of the detclock invariant: the
// deterministic search packages (core, mobo, sh, gp, mapsearch, ...) may not
// reference the wall clock at all, not even under a suppression comment.
// Every wall-clock read therefore lives here, behind an API the strict
// packages can call: a span observes wall time on End, and — when opened
// with StartClocked — the simulated clock too. Simulated-clock attribution
// is a pure function of the run configuration, which is what lets flight
// records carry per-iteration phase deltas without breaking the
// kill/resume bit-identity contract (wall times never enter flight records).
//
// Nesting is carried through context.Context: Start returns a derived
// context whose spans become children ("iteration/sh.rung/mapsearch.advance").
// Begin opens a root-level phase for call sites with no context (gp.Predict).
// Like the flight recorder, the profiler is observation-only: it never
// influences search decisions, verified by the existing bit-identity
// determinism tests.
package perfprof

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unico/internal/simclock"
	"unico/internal/telemetry"
)

// Separator joins parent and child phase names into a path.
const Separator = "/"

// phaseBuckets are the per-profiler quantile buckets (seconds): leaf spans
// are sub-microsecond, iteration spans can reach minutes.
var phaseBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// phase accumulates one path's observations. Wall statistics feed reports;
// count and simulated seconds feed flight-record deltas.
type phase struct {
	count    uint64
	wall     float64 // cumulative wall seconds
	sim      float64 // cumulative simulated seconds (clocked spans only)
	winCount uint64  // window accumulators: reset by TakeWindow. Windowed
	winSim   float64 // sums restart at zero, so per-iteration deltas are
	// bit-identical regardless of what the profiler accumulated before the
	// window opened — the property flight-record kill/resume identity needs
	// (a cumulative-minus-baseline difference loses run-dependent ulps).
	maxWall  float64
	hist     *telemetry.Histogram // standalone, for p50/p95
	volatile bool                 // excluded from TakeWindow (racy count)
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

// active is the process-wide profiler. It is never nil: an always-on
// default means flight records carry phase deltas identically in bare,
// killed, and resumed runs.
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
	clock *simclock.Clock
	sim0  float64
	done  bool
}

// Start opens a nested phase span: the returned context carries the new
// path so spans opened under it become children. End the span to record.
func (p *Profiler) Start(ctx context.Context, name string) (context.Context, *Span) {
	return p.startSpan(ctx, name, nil)
}

// StartClocked is Start for call sites that hold the run's simulated clock:
// the span records the simulated-clock delta alongside wall time. Only
// clocked spans contribute simulated seconds to phase totals.
func (p *Profiler) StartClocked(ctx context.Context, name string, c *simclock.Clock) (context.Context, *Span) {
	return p.startSpan(ctx, name, c)
}

func (p *Profiler) startSpan(ctx context.Context, name string, c *simclock.Clock) (context.Context, *Span) {
	path := name
	if parent, _ := ctx.Value(ctxKey{}).(string); parent != "" {
		path = parent + Separator + name
	}
	return context.WithValue(ctx, ctxKey{}, path), p.open(path, c)
}

func (p *Profiler) open(path string, c *simclock.Clock) *Span {
	s := &Span{p: p, path: path, clock: c,
		start: time.Now()} //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
	if c != nil {
		s.sim0 = c.Seconds()
	}
	return s
}

// Begin opens a root-level phase span for call sites with no context to
// thread (gp fits, mobo internals). Idiom: defer p.Begin("gp.fit").End()
func (p *Profiler) Begin(name string) *Span { return p.open(name, nil) }

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
	simEnd := s.sim0
	if s.clock != nil {
		simEnd = s.clock.Seconds()
	}
	s.p.record(s.path, wall, simEnd-s.sim0, false)
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

// ObserveVolatileAs records the elapsed wall time as one observation of
// path, a phase whose count depends on goroutine scheduling (an evalcache
// singleflight wait, a dist retry wait): the phase is kept out of TakeWindow
// — and therefore out of flight records, whose per-iteration deltas must be
// deterministic — but still appears in Report.
func (t Timer) ObserveVolatileAs(path string) {
	if t.p == nil {
		return
	}
	t.p.record(path, time.Since(t.start).Seconds(), 0, true) //unicolint:allow detclock the profiler is the module's one sanctioned wall-clock boundary
}

func (p *Profiler) record(path string, wall, sim float64, volatile bool) {
	p.mu.Lock()
	ph := p.phases[path]
	if ph == nil {
		ph = &phase{hist: telemetry.NewHistogram(phaseBuckets), volatile: volatile}
		p.phases[path] = ph
	}
	ph.count++
	ph.wall += wall
	ph.sim += sim
	ph.winCount++
	ph.winSim += sim
	if wall > ph.maxWall {
		ph.maxWall = wall
	}
	hist := ph.hist
	p.mu.Unlock()

	hist.Observe(wall)
}

// PhaseDelta is the per-iteration flight-record form of one phase: path,
// observation count, and simulated seconds — all deterministic functions of
// the run configuration, never wall time.
type PhaseDelta struct {
	Path       string  `json:"path"`
	Count      uint64  `json:"count"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
}

// TakeWindow returns the per-phase activity since the last TakeWindow call
// (sorted by path, inactive and volatile phases omitted) and resets the
// window. Because windowed sums restart at zero, identical work between two
// Take calls yields bit-identical deltas no matter what the profiler
// accumulated earlier — which is what lets a resumed run's flight records
// match an uninterrupted run's exactly. Call once at a boundary's start to
// discard preceding activity, then once at its end to collect.
func (p *Profiler) TakeWindow() []PhaseDelta {
	p.mu.Lock()
	defer p.mu.Unlock()
	paths := make([]string, 0, len(p.phases))
	for path, ph := range p.phases {
		if ph.volatile || (ph.winCount == 0 && ph.winSim == 0) {
			continue
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []PhaseDelta
	for _, path := range paths {
		ph := p.phases[path]
		out = append(out, PhaseDelta{Path: path, Count: ph.winCount, SimSeconds: ph.winSim})
		ph.winCount, ph.winSim = 0, 0
	}
	return out
}

// PhaseStat is one phase's full report line. Self time is cumulative time
// minus the cumulative time of direct children in the path tree; phases
// recorded through Begin (no context) are their own roots, so overlapping
// flat phases (gp.predict under mobo.suggest) each report their full time.
type PhaseStat struct {
	Path            string  `json:"path"`
	Count           uint64  `json:"count"`
	WallSeconds     float64 `json:"wall_seconds"`
	SelfWallSeconds float64 `json:"self_wall_seconds"`
	SimSeconds      float64 `json:"sim_seconds"`
	SelfSimSeconds  float64 `json:"self_sim_seconds"`
	P50Seconds      float64 `json:"p50_seconds"`
	P95Seconds      float64 `json:"p95_seconds"`
	MaxSeconds      float64 `json:"max_seconds"`
}

// Report returns every phase (volatile ones included) sorted by path, with
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
	childSim := map[string]float64{}
	for i, path := range paths {
		ph := p.phases[path]
		stats[i] = PhaseStat{
			Path:        path,
			Count:       ph.count,
			WallSeconds: ph.wall,
			SimSeconds:  ph.sim,
			P50Seconds:  ph.hist.Quantile(0.50),
			P95Seconds:  ph.hist.Quantile(0.95),
			MaxSeconds:  ph.maxWall,
		}
		if parent, ok := directParent(path); ok {
			childWall[parent] += ph.wall
			childSim[parent] += ph.sim
		}
	}
	p.mu.Unlock()
	for i := range stats {
		stats[i].SelfWallSeconds = stats[i].WallSeconds - childWall[stats[i].Path]
		stats[i].SelfSimSeconds = stats[i].SimSeconds - childSim[stats[i].Path]
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

// StartClocked opens a nested clocked span on the active profiler.
func StartClocked(ctx context.Context, name string, c *simclock.Clock) (context.Context, *Span) {
	return Active().StartClocked(ctx, name, c)
}

// Begin opens a root-level span on the active profiler.
func Begin(name string) *Span { return Active().Begin(name) }
