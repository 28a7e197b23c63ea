package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"unico/internal/perfprof"
	"unico/internal/telemetry"
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
		if p.FrontSize < 0 || p.Hypervolume < 0 {
			t.Errorf("iter %d: negative front size or hypervolume: %+v", p.Iter, p)
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

// TestTelemetryPreservesDeterminism is the acceptance criterion: a run with
// tracer and progress enabled must be bit-identical to the same seed run
// with both disabled.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	plain := RunContext(context.Background(), testPlatform(), smallOpts(11))

	var buf bytes.Buffer
	opt := smallOpts(11)
	tr := telemetry.NewTracer(&buf)
	opt.Progress = func(Progress) {}
	traced := RunContext(perfprof.WithTracer(context.Background(), tr), testPlatform(), opt)
	tr.Flush()

	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("tracing/progress changed the search result")
	}
	if buf.Len() == 0 {
		t.Fatal("tracer captured no events")
	}
}

// TestRunEmitsExpectedSpans checks the trace stream of a run whose context
// carries a tracer: one event per clocked phase, named as in the phase tree
// (iterations, suggestion, job construction, SH rungs, surrogate updates, HV
// computations), plus the per-candidate lanes, with simulated-time stamps.
func TestRunEmitsExpectedSpans(t *testing.T) {
	var buf bytes.Buffer
	opt := smallOpts(5)
	tr := telemetry.NewTracer(&buf)
	res := RunContext(perfprof.WithTracer(context.Background(), tr), testPlatform(), opt)
	tr.Flush()

	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Args map[string]any `json:"args"`
	}
	count := map[string]int{}
	maxTS := 0.0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line: %v\n%s", err, line)
		}
		count[e.Name]++
		if e.TS > maxTS {
			maxTS = e.TS
		}
	}
	for _, want := range []string{"sh.rung", "candidate_eval"} {
		if count[want] == 0 {
			t.Errorf("no %q spans in trace; got %v", want, count)
		}
	}
	for _, perIter := range []string{"iteration", "suggest", "newjob", "update", "hypervolume"} {
		if count[perIter] != len(res.Trace) {
			t.Errorf("%s spans = %d, iterations = %d", perIter, count[perIter], len(res.Trace))
		}
	}
	// Simulated timestamps should reach the run's simulated span (µs).
	if wantUS := res.Hours * 3600 * 1e6; maxTS < wantUS/2 {
		t.Errorf("max trace ts %v µs is far below the simulated run length %v µs", maxTS, wantUS)
	}
}

// TestHypervolumeOnlyWhenRead checks that a run computes its running
// hypervolume only for an observer: with no Progress callback, flight
// record or Chrome tracer the phase tree holds no hypervolume phase, while
// a Progress callback gets one phase per iteration and the values it
// reports, and the result is the same either way.
func TestHypervolumeOnlyWhenRead(t *testing.T) {
	hvPhases := func(opt Options) (uint64, Result) {
		prof := perfprof.New()
		restore := perfprof.SetActive(prof)
		defer restore()
		res := RunContext(context.Background(), testPlatform(), opt)
		for _, st := range prof.Report() {
			if strings.HasSuffix(st.Path, "hypervolume") {
				return st.Count, res
			}
		}
		return 0, res
	}
	n, bare := hvPhases(smallOpts(4))
	if n != 0 {
		t.Fatalf("a run with no observer computed the hypervolume %d times", n)
	}
	opt := smallOpts(4)
	var hvs []float64
	opt.Progress = func(p Progress) { hvs = append(hvs, p.Hypervolume) }
	n, watched := hvPhases(opt)
	if n != uint64(len(watched.Trace)) || len(hvs) != len(watched.Trace) {
		t.Fatalf("a watched run of %d iterations had %d hypervolume phases and %d reports", len(watched.Trace), n, len(hvs))
	}
	fronts := watched.Fronts()
	for i, hv := range hvs {
		if want := runningHypervolume(fronts[i]); hv != want || hv <= 0 {
			t.Fatalf("iteration %d reported hypervolume %v, want %v", i+1, hv, want)
		}
	}
	if !reflect.DeepEqual(bare, watched) {
		t.Fatal("watching the run changed its result")
	}
}
