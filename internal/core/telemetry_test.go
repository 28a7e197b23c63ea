package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"unico/internal/flightrec"
	"unico/internal/perfprof"
)

// TestProgressFiresPerIteration asserts the Progress callback fires exactly
// once per MOBO iteration, in order, with monotone non-decreasing simulated
// hours and internally consistent fields.
func TestProgressFiresPerIteration(t *testing.T) {
	var reports []Progress
	opt := smallOpts(3)
	opt.Progress = func(p Progress) { reports = append(reports, p) }
	res := RunContext(context.Background(), testPlatform(), opt)

	if len(reports) != len(res.Trace) {
		t.Fatalf("progress fired %d times, trace has %d iterations", len(reports), len(res.Trace))
	}
	prevHours := 0.0
	for i, p := range reports {
		if p.Iter != i+1 {
			t.Errorf("report %d has Iter=%d, want %d", i, p.Iter, i+1)
		}
		if p.SimHours < prevHours {
			t.Errorf("simulated hours decreased at iter %d: %v < %v", p.Iter, p.SimHours, prevHours)
		}
		prevHours = p.SimHours
		if p.FrontSize < 0 {
			t.Errorf("iter %d: negative front size: %+v", p.Iter, p)
		}
		if p.Evals <= 0 {
			t.Errorf("iter %d: no evaluations reported", p.Iter)
		}
	}
	last := reports[len(reports)-1]
	if last.Evals != res.Evals {
		t.Errorf("final progress evals = %d, result evals = %d", last.Evals, res.Evals)
	}
	if math.Abs(last.SimHours-res.Hours) > 1e-9 {
		t.Errorf("final progress hours = %v, result hours = %v", last.SimHours, res.Hours)
	}
	if last.FrontSize != len(res.Front) {
		t.Errorf("final progress front = %d, result front = %d", last.FrontSize, len(res.Front))
	}
}

// flightLog is a Flight sink that keeps every record in memory.
type flightLog []flightrec.Iteration

func (l *flightLog) RecordIteration(it flightrec.Iteration) { *l = append(*l, it) }

// TestTelemetryPreservesDeterminism is the acceptance criterion: a run with
// a flight sink and progress enabled must be bit-identical to the same seed
// run with both disabled.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	plain := RunContext(context.Background(), testPlatform(), smallOpts(11))

	var flight flightLog
	opt := smallOpts(11)
	opt.Flight = &flight
	opt.Progress = func(Progress) {}
	observed := RunContext(context.Background(), testPlatform(), opt)

	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("flight recording/progress changed the search result")
	}
	if len(flight) != len(observed.Trace) {
		t.Fatalf("flight sink received %d records for %d iterations", len(flight), len(observed.Trace))
	}
}

// TestRunEmitsExpectedSpans checks the run's phase tree: one span per
// iteration for each per-iteration phase (iteration, suggestion, job
// construction, surrogate update) and at least one SH rung.
func TestRunEmitsExpectedSpans(t *testing.T) {
	prof := perfprof.New()
	restore := perfprof.SetActive(prof)
	defer restore()
	var flight flightLog
	opt := smallOpts(5)
	opt.Flight = &flight
	res := RunContext(context.Background(), testPlatform(), opt)
	iters := uint64(len(res.Trace))
	if len(flight) != len(res.Trace) || iters == 0 {
		t.Fatalf("%d flight records for %d iterations", len(flight), iters)
	}

	count := map[string]uint64{}
	for _, st := range prof.Report() {
		count[st.Path[strings.LastIndex(st.Path, perfprof.Separator)+1:]] += st.Count
	}
	for _, once := range []string{"iteration", "suggest", "newjob", "update"} {
		if count[once] != iters {
			t.Errorf("%d %q spans over %d iterations, want one each (phases %v)", count[once], once, iters, count)
		}
	}
	if count["sh.rung"] == 0 {
		t.Errorf("no sh.rung span (phases %v)", count)
	}
}
