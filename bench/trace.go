package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// now is the benchmark's only wall-clock read.
func now() time.Time {
	return time.Now() //unicolint:allow detclock the benchmark measures host time; nothing here feeds a search
}

// engineSampleEvery is the engine-call timing stride: every call is counted,
// one in this many (by index) is timed, and a layer's busy time is the mean
// of the timed calls times the count. An engine call is about a microsecond,
// so timing each one would cost as much as the call.
const engineSampleEvery = 64

// Names of the spans the wrappers record. Phase spans (suggest, newjobs,
// sh.run, update_book) are not recorded but derived per iteration from the
// boundaries of these.
const (
	spanNewJob     = "platform.newjob"
	spanAdvance    = "mapsearch.advance"
	spanAppend     = "checkpoint.append"
	spanSnapshot   = "checkpoint.snapshot"
	spanFlight     = "flightrec.record"
	spanRequest    = "dist.request"
	spanRoute      = "fleet.route"
	spanServe      = "dist.serve" // recorded as dist.serve/<shard index>
	spanProgress   = "core.progress"
	spanCosearch   = "cosearch"
	spanIteration  = "core.iter"
	spanSuggest    = "mobo.suggest"
	spanNewJobs    = "core.newjobs"
	spanSHRun      = "sh.run"
	spanUpdateBook = "core.update_book"
	spanFinish     = "core.finish"
)

// event is one recorded call into a layer, in seconds since the tracer's
// epoch. Progress is an instant (start == end).
type event struct {
	name       string
	start, end float64
	// sent and received are body bytes of an HTTP exchange; failed marks a
	// transport error or a 429/5xx answer.
	sent, received int64
	failed         bool
}

// span is one node of a rep's span tree, as written to -trace-out.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Name   string  `json:"name"`
	Rep    int     `json:"rep"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// engineCounter counts every call into an engine and times a sample of them.
type engineCounter struct {
	calls   atomic.Uint64
	sampled atomic.Uint64
	nanos   atomic.Int64
}

// enter counts a call and reports whether it is one of the timed ones.
func (c *engineCounter) enter() bool {
	return c.calls.Add(1)%engineSampleEvery == 0
}

func (c *engineCounter) observe(start time.Time) {
	c.nanos.Add(int64(now().Sub(start)))
	c.sampled.Add(1)
}

// engineReading is a counter's state at one moment; the difference of two is
// one rep's activity.
type engineReading struct {
	calls, sampled uint64
	nanos          int64
}

func (c *engineCounter) read() engineReading {
	return engineReading{c.calls.Load(), c.sampled.Load(), c.nanos.Load()}
}

// busy estimates the time spent inside the engine between two readings.
func (a engineReading) busy(b engineReading) float64 {
	n := b.sampled - a.sampled
	if n == 0 {
		return 0
	}
	mean := float64(b.nanos-a.nanos) / float64(n)
	return mean * float64(b.calls-a.calls) / 1e9
}

// tracer collects the events of traced co-searches in memory. All wrappers
// live here, in the benchmark: the program under test is not instrumented.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	events    []event
	searchers []mapsearch.Searcher

	engines map[string]*engineCounter
}

func newTracer() *tracer {
	return &tracer{epoch: now(), engines: map[string]*engineCounter{}}
}

func (t *tracer) since() float64 { return now().Sub(t.epoch).Seconds() }

func (t *tracer) record(e event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// call records a span from start to now.
func (t *tracer) call(name string, start float64) {
	t.record(event{name: name, start: start, end: t.since()})
}

// takeRep hands back what one rep recorded and clears it for the next.
func (t *tracer) takeRep() ([]event, []mapsearch.Searcher) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev, ss := t.events, t.searchers
	t.events, t.searchers = nil, nil
	return ev, ss
}

func (t *tracer) counter(name string) *engineCounter {
	c := t.engines[name]
	if c == nil {
		c = &engineCounter{}
		t.engines[name] = c
	}
	return c
}

// readEngines snapshots every engine counter.
func (t *tracer) readEngines() map[string]engineReading {
	out := make(map[string]engineReading, len(t.engines))
	for name, c := range t.engines {
		out[name] = c.read()
	}
	return out
}

// --- platform and searcher -------------------------------------------------

type tracedPlatform struct {
	core.Platform
	tr *tracer
}

// platform wraps p so every NewJob is timed and every searcher it returns
// times its Advance calls.
func (t *tracer) platform(p core.Platform) core.Platform {
	return tracedPlatform{Platform: p, tr: t}
}

func (p tracedPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	start := p.tr.since()
	job := p.Platform.NewJob(x, seed)
	p.tr.call(spanNewJob, start)
	ts := &tracedSearcher{Searcher: job, tr: p.tr}
	p.tr.mu.Lock()
	p.tr.searchers = append(p.tr.searchers, ts)
	p.tr.mu.Unlock()
	return ts
}

type tracedSearcher struct {
	mapsearch.Searcher
	tr *tracer
}

func (s *tracedSearcher) Advance(budget int) {
	start := s.tr.since()
	s.Searcher.Advance(budget)
	s.tr.call(spanAdvance, start)
}

// AdvanceContext keeps the cancelable fast path of the wrapped searcher, so
// the traced run takes the same route through it as the timed one.
func (s *tracedSearcher) AdvanceContext(ctx context.Context, budget int) {
	start := s.tr.since()
	if ca, ok := s.Searcher.(mapsearch.ContextAdvancer); ok {
		ca.AdvanceContext(ctx, budget)
	} else {
		s.Searcher.Advance(budget)
	}
	s.tr.call(spanAdvance, start)
}

// Close forwards to searchers that hold worker-side state (remote jobs), so
// core's end-of-iteration clean-up still reaches them through the wrapper.
func (s *tracedSearcher) Close() error {
	if c, ok := s.Searcher.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// --- engines ---------------------------------------------------------------

type tracedSpatial struct {
	mapsearch.SpatialEngine
	c *engineCounter
}

// spatialEngine wraps e under the counter name (one counter per name, shared
// by every wrapper of that name — the three shards of a fleet add up).
func (t *tracer) spatialEngine(name string, e mapsearch.SpatialEngine) mapsearch.SpatialEngine {
	return tracedSpatial{SpatialEngine: e, c: t.counter(name)}
}

func (e tracedSpatial) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	if !e.c.enter() {
		return e.SpatialEngine.Evaluate(c, m, l)
	}
	start := now()
	met, err := e.SpatialEngine.Evaluate(c, m, l)
	e.c.observe(start)
	return met, err
}

type tracedAscend struct {
	mapsearch.AscendEngine
	c *engineCounter
}

func (t *tracer) ascendEngine(name string, e mapsearch.AscendEngine) mapsearch.AscendEngine {
	return tracedAscend{AscendEngine: e, c: t.counter(name)}
}

func (e tracedAscend) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if !e.c.enter() {
		return e.AscendEngine.Evaluate(c, m, l)
	}
	start := now()
	met, err := e.AscendEngine.Evaluate(c, m, l)
	e.c.observe(start)
	return met, err
}

// --- persistence sinks -----------------------------------------------------

type tracedCheckpoint struct {
	core.CheckpointSink
	tr *tracer
}

func (t *tracer) checkpoint(s core.CheckpointSink) core.CheckpointSink {
	return tracedCheckpoint{CheckpointSink: s, tr: t}
}

func (s tracedCheckpoint) AppendIteration(rec core.IterationRecord) error {
	start := s.tr.since()
	err := s.CheckpointSink.AppendIteration(rec)
	s.tr.call(spanAppend, start)
	return err
}

func (s tracedCheckpoint) WriteSnapshot(snap core.SnapshotRecord) error {
	start := s.tr.since()
	err := s.CheckpointSink.WriteSnapshot(snap)
	s.tr.call(spanSnapshot, start)
	return err
}

type tracedFlight struct {
	flightrec.Sink
	tr *tracer
}

func (t *tracer) flight(s flightrec.Sink) flightrec.Sink {
	return tracedFlight{Sink: s, tr: t}
}

func (s tracedFlight) RecordIteration(it flightrec.Iteration) {
	start := s.tr.since()
	s.Sink.RecordIteration(it)
	s.tr.call(spanFlight, start)
}

// progress is the core.Options.Progress hook: the instant an iteration ends.
func (t *tracer) progress(core.Progress) {
	at := t.since()
	t.record(event{name: spanProgress, start: at, end: at})
}

// --- HTTP hops -------------------------------------------------------------

type tracedRoundTripper struct {
	next http.RoundTripper
	tr   *tracer
}

// roundTripper times every exchange of a dist.Client from the request's
// departure to the close of the response body, and counts body bytes both
// ways. It changes no header.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return tracedRoundTripper{next: next, tr: t}
}

func (rt tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	start := rt.tr.since()
	sent := max(req.ContentLength, 0)
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.tr.record(event{name: spanRequest, start: start, end: rt.tr.since(), sent: sent, failed: true})
		return nil, err
	}
	failed := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(received int64) {
		rt.tr.record(event{name: spanRequest, start: start, end: rt.tr.since(),
			sent: sent, received: received, failed: failed})
	}}
	return resp, nil
}

// tracedBody counts the bytes read from a response body and reports once,
// when the body is closed.
type tracedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(received int64)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// handler times every request a router or shard serves.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.since()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		failed := sw.status == http.StatusTooManyRequests || sw.status >= 500
		t.record(event{name: name, start: start, end: t.since(), failed: failed})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// --- analysis ----------------------------------------------------------------

// repTrace is what one traced co-search yields: its span tree, the per-layer
// times and counts, and the duration samples percentiles are taken from.
type repTrace struct {
	wall    float64
	spans   []span
	times   map[string]float64 // seconds per co-search, by metric name
	counts  map[string]float64 // counts per co-search, by metric name
	samples map[string][]float64
	// spent is Σ Searcher.Spent over every job of the rep.
	spent int
}

// analyze builds the span tree of one rep from its events and derives the
// per-layer numbers. start and end bound the co-search; engines are the
// counter readings at those two moments.
func analyze(rep int, start, end float64, events []event, searchers []mapsearch.Searcher,
	before, after map[string]engineReading) repTrace {
	rt := repTrace{
		wall:    end - start,
		times:   map[string]float64{},
		counts:  map[string]float64{},
		samples: map[string][]float64{},
	}
	for _, s := range searchers {
		rt.spent += s.Spent()
	}

	sort.SliceStable(events, func(a, b int) bool { return events[a].start < events[b].start })
	nextID := 0
	add := func(parent int, name string, iv interval) int {
		nextID++
		rt.spans = append(rt.spans, span{ID: nextID, Parent: parent, Name: name, Rep: rep, Start: iv.start, End: iv.end})
		return nextID
	}
	root := add(0, spanCosearch, interval{start, end})

	// Iteration boundaries: an iteration runs from the previous Progress (or
	// the start of the co-search) to its own Progress.
	var bounds []float64
	for _, e := range events {
		if e.name == spanProgress {
			bounds = append(bounds, e.start)
		}
	}
	type phase struct {
		id   int
		name string
		iv   interval
	}
	var phases []phase // every leaf-holding phase, for parenting events by time
	iterStart := start
	for _, iterEnd := range bounds {
		iterIv := interval{iterStart, iterEnd}
		iterID := add(root, spanIteration, iterIv)
		rt.samples["core.iter_wall"] = append(rt.samples["core.iter_wall"], iterEnd-iterStart)

		// The phases tile the iteration: suggest ends at the first NewJob,
		// sh.run starts when the last NewJob returns and ends when the last
		// Advance returns, and what is left before Progress is the surrogate
		// update, front bookkeeping and persistence.
		firstJob, lastJob, lastAdvance := iterEnd, iterStart, iterStart
		for _, e := range events {
			if e.start < iterStart || e.start >= iterEnd {
				continue
			}
			switch e.name {
			case spanNewJob:
				firstJob = min(firstJob, e.start)
				lastJob = max(lastJob, e.end)
			case spanAdvance:
				lastAdvance = max(lastAdvance, e.end)
			}
		}
		lastJob = max(lastJob, firstJob)
		lastAdvance = max(lastAdvance, lastJob)
		tiles := []struct {
			name string
			iv   interval
		}{
			{spanSuggest, interval{iterStart, firstJob}},
			{spanNewJobs, interval{firstJob, lastJob}},
			{spanSHRun, interval{lastJob, lastAdvance}},
			{spanUpdateBook, interval{lastAdvance, iterEnd}},
		}
		for _, tile := range tiles {
			phases = append(phases, phase{add(iterID, tile.name, tile.iv), tile.name, tile.iv})
		}
		rt.counts["mobo.suggest_count"]++
		iterStart = iterEnd
	}
	// After the last Progress: the final snapshot and the return.
	finish := interval{iterStart, end}
	phases = append(phases, phase{add(root, spanFinish, finish), spanFinish, finish})

	// Parent every recorded call under the phase it started in, and total
	// each layer.
	children := map[int][]interval{}
	perShard := map[string]float64{}
	for _, e := range events {
		if e.name == spanProgress {
			continue
		}
		parent := root
		for _, p := range phases {
			if e.start >= p.iv.start && e.start < p.iv.end {
				parent = p.id
				break
			}
		}
		add(parent, e.name, interval{e.start, e.end})
		children[parent] = append(children[parent], interval{e.start, e.end})
		d := e.end - e.start
		switch layer, _, _ := strings.Cut(e.name, "/"); layer {
		case spanNewJob:
			rt.times["platform.newjob_s"] += d
			rt.counts["platform.newjob_count"]++
		case spanAdvance:
			rt.times["mapsearch.advance_busy_s"] += d
			rt.counts["mapsearch.advance_count"]++
			rt.samples["mapsearch.advance"] = append(rt.samples["mapsearch.advance"], d)
		case spanAppend:
			rt.times["checkpoint.append_busy_s"] += d
			rt.counts["checkpoint.append_count"]++
			rt.samples["checkpoint.append"] = append(rt.samples["checkpoint.append"], d)
		case spanSnapshot:
			rt.times["checkpoint.snapshot_busy_s"] += d
			rt.counts["checkpoint.snapshot_count"]++
		case spanFlight:
			rt.times["flightrec.record_busy_s"] += d
			rt.counts["flightrec.record_count"]++
			rt.samples["flightrec.record"] = append(rt.samples["flightrec.record"], d)
		case spanRequest:
			rt.times["dist.request_busy_s"] += d
			rt.counts["dist.request_count"]++
			rt.counts["dist.bytes_sent"] += float64(e.sent)
			rt.counts["dist.bytes_received"] += float64(e.received)
			rt.samples["dist.request"] = append(rt.samples["dist.request"], d)
			if e.failed {
				rt.counts["dist.failed_requests"]++
			}
		case spanRoute:
			rt.times["fleet.route_busy_s"] += d
			rt.counts["fleet.route_count"]++
			rt.samples["fleet.route"] = append(rt.samples["fleet.route"], d)
			if e.failed {
				rt.counts["fleet.shed_count"]++
			}
		case spanServe:
			rt.times["dist.serve_busy_s"] += d
			rt.samples["dist.serve"] = append(rt.samples["dist.serve"], d)
			perShard[e.name]++
		}
	}

	// A phase's self time is what its recorded calls do not cover. The
	// phases tile the co-search, so the self times below plus the calls
	// under them add up to its wall-clock time exactly; what is left with
	// no layer's name on it — the gaps between NewJob calls and the tail
	// after the last Progress — is reported as unattributed.
	for _, p := range phases {
		self := selfTime(p.iv, children[p.id])
		switch p.name {
		case spanSuggest:
			rt.times["mobo.suggest_s"] += self
		case spanSHRun:
			rt.times["sh.run_s"] += p.iv.end - p.iv.start
			rt.times["sh.self_s"] += self
		case spanUpdateBook:
			rt.times["core.update_book_s"] += self
		default:
			rt.times["bench.unattributed_s"] += self
		}
	}

	// Hop costs come from sums, not from matching requests across hops: no
	// header is added, so a request cannot be followed.
	if rt.counts["dist.request_count"] > 0 {
		rt.times["dist.transport_s"] = rt.times["dist.request_busy_s"] - rt.times["fleet.route_busy_s"]
		rt.times["fleet.router_self_s"] = rt.times["fleet.route_busy_s"] - rt.times["dist.serve_busy_s"]
	}
	if len(perShard) > 0 {
		most, total := 0.0, 0.0
		for _, n := range perShard {
			most = max(most, n)
			total += n
		}
		rt.counts["fleet.shard_imbalance"] = most / (total / fleetShards)
	}

	for name, a := range before {
		b := after[name]
		rt.counts[name+".evaluate_count"] = float64(b.calls - a.calls)
		rt.times[name+".evaluate_busy_s"] = a.busy(b)
	}
	engineBusy := rt.times["maestro.evaluate_busy_s"] + rt.times["camodel.evaluate_busy_s"]
	if outer, ok := rt.times["evalcache.evaluate_busy_s"]; ok {
		// The outer wrapper sits in front of the cache, the inner behind it:
		// what the outer sees beyond the inner is the cache's own cost.
		calls := rt.counts["evalcache.evaluate_count"]
		if calls > 0 {
			rt.counts["evalcache.added_us_per_call"] = (outer - engineBusy) / calls * 1e6
		}
		engineBusy = outer
	}
	if _, remote := rt.counts["dist.request_count"]; !remote {
		// Local searchers only: through a fleet the engines run under the
		// shards' handlers, not under this process's Advance calls.
		rt.times["mapsearch.self_busy_s"] = rt.times["mapsearch.advance_busy_s"] - engineBusy
	}
	return rt
}

// writeSpans writes the span trees of every traced rep as JSON lines.
func writeSpans(w io.Writer, reps []repTrace) error {
	enc := json.NewEncoder(w)
	for _, r := range reps {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return nil
}
