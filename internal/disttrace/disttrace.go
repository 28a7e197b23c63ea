// Package disttrace is a stdlib-only distributed tracing layer for the
// /v1/* evaluation protocol. A trace is one co-search run (trace ID = run
// ID); spans cover every hop an eval takes — the client call with its
// retries and backoff waits, router admission queueing and forwards, shard
// handling, and the engine evaluation itself. On the client side both the
// trace ID and the parent span ride the request's context.Context, so
// co-searches sharing a process keep separate span trees.
//
// Span records are two JSONL events — "start" and "end" — appended to a
// per-process span log with the same write-then-fsync discipline as flight
// records. The ordering guarantee matters: a parent span's start event is
// durable before any child span exists, in-process and across processes
// (headers are only injected after the local start is fsynced). A kill -9
// therefore yields *incomplete* spans (start without end), never orphans
// (child naming an absent parent); `unicoreport -gate` keys on that.
//
// Context propagates over HTTP via the X-Unico-Trace / X-Unico-Parent
// headers. Extraction falls back to X-Unico-Run-ID for the trace ID, so a
// shard with tracing enabled still produces correlatable spans when the
// client predates tracing. A router with tracing disabled passes the
// headers through untouched.
//
// Tracing is off unless a process calls Enable; every entry point is
// nil-safe and the disabled path is a single atomic pointer load, so
// instrumented code needs no conditionals and pays nothing when idle.
package disttrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"unico/internal/durable"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Header names carrying span context across the /v1/* protocol.
const (
	// TraceHeader carries the trace ID (the run ID of the co-search).
	TraceHeader = "X-Unico-Trace"
	// ParentHeader carries the span ID the receiving hop should parent onto.
	ParentHeader = "X-Unico-Parent"
)

// SpanContext identifies a span within a trace. The zero value is "no
// context" and is safe to pass anywhere a context is accepted.
type SpanContext struct {
	Trace string
	Span  string
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != "" && sc.Span != "" }

// Inject writes the span context into outgoing request headers. A zero
// context injects nothing.
func Inject(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceHeader, sc.Trace)
	h.Set(ParentHeader, sc.Span)
}

// Extract reads span context from incoming request headers. When the trace
// header is absent it falls back to X-Unico-Run-ID so untraced-but-run-tagged
// callers still correlate; the parent span is then empty and the receiving
// span becomes a root.
func Extract(h http.Header) SpanContext {
	if trace := h.Get(TraceHeader); trace != "" {
		return SpanContext{Trace: trace, Span: h.Get(ParentHeader)}
	}
	return SpanContext{Trace: h.Get(runid.Header)}
}

// Event is one line of a span log: half a span. Ev is "start" or "end".
// Start events carry identity (kind, name, proc, parent); end events carry
// outcome (status, attrs). Timestamps are microseconds since the Unix epoch.
type Event struct {
	Ev     string            `json:"ev"`
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Kind   string            `json:"kind,omitempty"`
	Name   string            `json:"name,omitempty"`
	Proc   string            `json:"proc,omitempty"`
	TimeUS int64             `json:"t_us"`
	Status string            `json:"status,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Recorder appends span events to a JSONL log (a durable.Log in Lines
// framing: one write and one fsync per event) and keeps nothing else: the
// log is the only copy, read back by LoadFiles. A nil Recorder is a valid
// no-op.
type Recorder struct {
	proc   string
	prefix string
	seq    atomic.Uint64
	log    *durable.Log
}

// NewRecorder opens (appending) a span log at path for a process labeled
// proc ("client", "router", "shard", "loadgen"). An empty path is an error:
// a recorder is its log.
func NewRecorder(path, proc string) (*Recorder, error) { return newRecorder(durable.OS{}, path, proc) }

func newRecorder(fsys durable.FS, path, proc string) (*Recorder, error) {
	if path == "" {
		return nil, errors.New("disttrace: no span log path")
	}
	log, err := durable.OpenLog(fsys, path, durable.Lines, false)
	if err != nil {
		return nil, fmt.Errorf("disttrace: open span log: %w", err)
	}
	return &Recorder{proc: proc, prefix: mintPrefix(), log: log}, nil
}

func mintPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the process clock; prefixes only need to be unique
		// enough that two processes in one fleet don't collide.
		//unicolint:allow detclock span-ID entropy fallback, not search logic
		return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
	}
	return hex.EncodeToString(b[:])
}

func (r *Recorder) mintID() string {
	return "s" + r.prefix + "-" + strconv.FormatUint(r.seq.Add(1), 10)
}

// Close closes the underlying span log, reporting the first write error
// the recorder latched, if any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	return r.log.Close()
}

// emit makes one event's JSONL line durable before returning. The
// fsync-per-event cost is the price of the no-orphans guarantee under
// kill -9. A write failure disables the log (it latches the error and
// refuses later appends); Close reports it.
func (r *Recorder) emit(ev Event) {
	_ = r.log.AppendJSON(ev) // a failure is latched in the log and surfaced by Close
}

// Span is a live span handle. A nil *Span is valid and inert, so callers
// never branch on whether tracing is enabled.
type Span struct {
	rec   *Recorder
	ctx   SpanContext
	ended atomic.Bool
}

// Context returns the span's context for injection into child hops; zero
// when the span is nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// End records the span's end event with a status ("ok", "shed", "canceled",
// "error", ...) and optional attributes. Safe on nil; extra calls after the
// first are dropped.
func (s *Span) End(status string, attrs map[string]string) {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.rec.emit(Event{
		Ev: "end", Trace: s.ctx.Trace, Span: s.ctx.Span,
		TimeUS: nowUS(), Status: status, Attrs: attrs,
	})
}

func nowUS() int64 {
	//unicolint:allow detclock span timestamps measure real latency by definition
	return time.Now().UnixMicro()
}

// active is the process-wide recorder; nil means tracing is disabled and
// every StartSpan returns nil.
var active atomic.Pointer[Recorder]

// Enable installs r as the process recorder (nil disables tracing).
func Enable(r *Recorder) { active.Store(r) }

// Active returns the process recorder, or nil when tracing is disabled.
func Active() *Recorder { return active.Load() }

// StartSpan opens a span on the process recorder. The trace is taken from
// parent when parent is valid; a missing trace, or tracing disabled, yields
// nil. The kind increments unico_trace_spans_total{kind}.
func StartSpan(trace string, parent SpanContext, kind, name string) *Span {
	return Active().StartSpan(trace, parent, kind, name)
}

// StartSpan is the recorder-level form of the package function; nil-safe.
func (r *Recorder) StartSpan(trace string, parent SpanContext, kind, name string) *Span {
	if r == nil {
		return nil
	}
	if parent.Valid() {
		trace = parent.Trace
	} else {
		parent = SpanContext{}
	}
	if trace == "" {
		return nil
	}
	return r.startWithID(r.mintID(), trace, parent, kind, name)
}

func (r *Recorder) startWithID(id, trace string, parent SpanContext, kind, name string) *Span {
	r.emit(Event{
		Ev: "start", Trace: trace, Span: id, Parent: parent.Span,
		Kind: kind, Name: name, Proc: r.proc, TimeUS: nowUS(),
	})
	telemetry.TraceSpans(kind).Inc()
	return &Span{rec: r, ctx: SpanContext{Trace: trace, Span: id}}
}

// StartFromHeader opens a server-side span parented on the extracted
// incoming context. Returns nil when tracing is disabled or the request
// carries neither trace nor run-ID headers.
func StartFromHeader(h http.Header, kind, name string) *Span {
	sc := Extract(h)
	return StartSpan(sc.Trace, sc, kind, name)
}

// runSeq numbers co-search runs within this process so iteration span IDs
// ("r<run>-it<iter>") stay deterministic: the ID is a pure function of the
// run ordinal and iteration number, independent of tracing being on, which
// keeps flight records bit-identical across kill/resume and traced/untraced
// CI comparisons.
var runSeq atomic.Int64

// BeginRun returns the ordinal of a co-search run starting now, for its
// iteration spans' IDs. Call once per core.Run invocation, traced or not.
func BeginRun() int64 { return runSeq.Add(1) }

// IterationSpanID returns the deterministic span ID for an iteration of the
// run with ordinal run.
func IterationSpanID(run int64, iter int) string {
	return "r" + strconv.FormatInt(run, 10) + "-it" + strconv.Itoa(iter)
}

type parentKey struct{}

// WithParent returns a context whose outgoing requests parent their client
// spans on sc. An invalid sc — the context of a span opened with tracing off
// — returns ctx as it is, so a hop that records nothing still hands on the
// parent it was given and the chain around it stays linked.
func WithParent(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, sc)
}

// Parent returns the span context ctx's requests parent on, or zero when ctx
// runs under no span.
func Parent(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(parentKey{}).(SpanContext)
	return sc
}

// BeginIteration opens the per-iteration root span of the run ctx belongs to
// (trace ID = runid.From(ctx)) and returns a context carrying it as the
// parent of the iteration's client spans. With tracing disabled or no run ID
// on ctx it returns ctx and a nil span, whose Context().Span is empty — so
// callers can assign that straight into the flight record's omitempty field.
func BeginIteration(ctx context.Context, run int64, iter int) (context.Context, *Span) {
	rec := Active()
	trace := runid.From(ctx)
	if rec == nil || trace == "" {
		return ctx, nil
	}
	s := rec.startWithID(IterationSpanID(run, iter), trace, SpanContext{}, "iteration", "iter "+strconv.Itoa(iter))
	return WithParent(ctx, s.Context()), s
}
