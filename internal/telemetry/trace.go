package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Tracer records search events as Chrome trace_event objects, one JSON
// object per line (JSONL). Each line is a complete "X" event whose timeline
// (ts/dur, microseconds) runs on the *simulated* clock, so a multi-hour
// co-search renders at its true simulated proportions in a trace viewer; the
// real elapsed milliseconds of a phase ride along in args.real_ms.
// `jq -s . trace.jsonl` converts the stream to the JSON-array form
// chrome://tracing and Perfetto ingest directly.
//
// A run's tracer rides its context (perfprof.WithTracer): the clocked phase
// spans of internal/perfprof write themselves here, so the event names are
// the phase names of the flight records and /debug/unico/phases.
//
// A nil *Tracer is a valid disabled tracer: every method no-ops, which is
// the zero-overhead fast path the instrumented packages rely on.
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
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
	t := &Tracer{w: bw, enc: json.NewEncoder(bw)}
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

// Complete records a whole span from simStartSec to simEndSec (simulated
// seconds) on the virtual thread tid; args gains the simulated end time in
// hours (sim_hours).
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

// Flush drains buffered events to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
