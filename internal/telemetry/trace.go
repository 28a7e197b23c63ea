package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer records search events as Chrome trace_event objects, one JSON
// object per line (JSONL). Each line is a complete "X" (complete span) or
// "i" (instant) event whose timeline (ts/dur, microseconds) runs on the
// *simulated* clock, so a multi-hour co-search renders at its true simulated
// proportions in a trace viewer; the real elapsed milliseconds ride along in
// args.real_ms. `jq -s . trace.jsonl` converts the stream to the JSON-array
// form chrome://tracing and Perfetto ingest directly.
//
// A nil *Tracer is a valid disabled tracer: every method no-ops, which is
// the zero-overhead fast path the instrumented packages rely on.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
}

// traceEvent is one Chrome trace_event object.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	t := &Tracer{w: bw, enc: json.NewEncoder(bw), start: time.Now()} //unicolint:allow detclock trace events carry real time alongside simulated time
	t.emit(traceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "unico co-search (simulated time)"},
	})
	return t
}

func (t *Tracer) emit(ev traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(ev) // Encode appends the newline: one event per line
}

// Span is an in-flight span started by StartSpan. A nil *Span no-ops.
type Span struct {
	t         *Tracer
	name, cat string
	tid       int64
	simStart  float64
	realStart time.Time
}

// StartSpan opens a span at simulated time simSec (seconds) on the virtual
// thread tid. Returns nil — still safe to End — when the tracer is nil.
func (t *Tracer) StartSpan(name, cat string, tid int64, simSec float64) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, tid: tid, simStart: simSec, realStart: time.Now()} //unicolint:allow detclock trace events carry real time alongside simulated time
}

// End closes the span at simulated time simSec, attaching args (real
// elapsed milliseconds and the simulated end time in hours are added).
func (s *Span) End(simSec float64, args map[string]any) {
	if s == nil {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["real_ms"] = float64(time.Since(s.realStart)) / float64(time.Millisecond) //unicolint:allow detclock trace events carry real time alongside simulated time
	args["sim_hours"] = simSec / 3600
	dur := (simSec - s.simStart) * 1e6
	if dur < 0 {
		dur = 0
	}
	s.t.emit(traceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: s.simStart * 1e6, Dur: dur,
		PID: 1, TID: s.tid, Args: args,
	})
}

// Complete records a whole span in one call, for work whose simulated
// bounds are known only after the fact (e.g. per-candidate evaluations
// inside a parallel rung).
func (t *Tracer) Complete(name, cat string, tid int64, simStartSec, simEndSec float64, args map[string]any) {
	if t == nil {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["sim_hours"] = simEndSec / 3600
	dur := (simEndSec - simStartSec) * 1e6
	if dur < 0 {
		dur = 0
	}
	t.emit(traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: simStartSec * 1e6, Dur: dur,
		PID: 1, TID: tid, Args: args,
	})
}

// Instant records a zero-duration event at simulated time simSec.
func (t *Tracer) Instant(name, cat string, tid int64, simSec float64, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(traceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS: simSec * 1e6, PID: 1, TID: tid, Args: args,
	})
}

// Flush drains buffered events to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
