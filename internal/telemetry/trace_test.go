package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTraceJSONLWellFormed verifies every emitted line is a standalone JSON
// object with the Chrome trace_event required fields.
func TestTraceJSONLWellFormed(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)

	tr.Complete("candidate_eval", "sh", 3, 10, 25, map[string]any{"candidate": 2})
	tr.Complete("iteration", "phase", 0, 10, 40, map[string]any{"front": 4})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // metadata + two complete events
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	names := map[string]bool{}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("line %d missing %q: %s", i+1, field, line)
			}
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"process_name", "iteration", "candidate_eval"} {
		if !names[want] {
			t.Errorf("missing event %q", want)
		}
	}
}

// TestTraceSimulatedTimestamps verifies ts/dur run on the simulated clock
// (microseconds) and args carry the simulated hours.
func TestTraceSimulatedTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Complete("candidate_eval", "sh", 1, 7200, 10800, nil) // sim 2h .. 3h
	tr.Flush()

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var ev struct {
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.TS != 7200e6 {
		t.Errorf("ts = %v µs, want 7.2e9 (simulated 2 h)", ev.TS)
	}
	if ev.Dur != 3600e6 {
		t.Errorf("dur = %v µs, want 3.6e9 (simulated 1 h)", ev.Dur)
	}
	if got := ev.Args["sim_hours"].(float64); got != 3 {
		t.Errorf("args.sim_hours = %v, want 3", got)
	}
}

// TestNilTracerNoOps exercises the disabled fast path: a nil tracer must be
// safe everywhere.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Complete("x", "y", 0, 1, 2, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrent emits from many goroutines; -race plus the line
// parse verifies events never interleave mid-line.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Complete("ev", "t", int64(w), float64(i), float64(i+1), nil)
			}
		}(w)
	}
	wg.Wait()
	tr.Flush()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 1+8*50)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d corrupt: %s", i+1, line)
		}
	}
}
