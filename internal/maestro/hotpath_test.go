package maestro

import (
	"errors"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/telemetry"
)

// l1Reject is a mapping whose tile overflows an 8-byte L1.
func l1Reject() (hw.Spatial, mapping.Spatial) {
	c := testHW()
	c.L1Bytes = 8
	return c, mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(testLayer())
}

// TestEvaluateDoesNotAllocate pins the evaluation hot path: nothing on the
// heap for a feasible triple, and only the error value for an infeasible
// one. It holds under the race detector too, so it is not skipped there.
func TestEvaluateDoesNotAllocate(t *testing.T) {
	var e Engine
	c, l := testHW(), testLayer()
	m := minimalMapping(l)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Evaluate(c, m, l); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("feasible Evaluate allocates %.2f objects per call, want 0", n)
	}
	tiny, big := l1Reject()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Evaluate(tiny, big, l); err == nil {
			t.Fatal("no error")
		}
	}); n > 1 {
		t.Errorf("infeasible Evaluate allocates %.2f objects per call, want <= 1", n)
	}
}

// TestEvaluateMetering holds the engine's meters to their contract: the
// evaluation and infeasibility counters are exact, and the latency histogram
// sees the calls whose count is a multiple of PPAEvalSampleEvery — exactly
// ten of any 640 consecutive ones.
func TestEvaluateMetering(t *testing.T) {
	var e Engine
	c, l := testHW(), testLayer()
	m := minimalMapping(l)
	tiny, big := l1Reject()
	evals, infeasible, timed := evalCount.Value(), evalInfeasible.Value(), evalSeconds.Count()
	const calls = 10 * telemetry.PPAEvalSampleEvery
	for i := 0; i < calls; i++ {
		if i%4 == 3 {
			if _, err := e.Evaluate(tiny, big, l); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("call %d: err = %v, want ErrInfeasible", i, err)
			}
			continue
		}
		if _, err := e.Evaluate(c, m, l); err != nil {
			t.Fatal(err)
		}
	}
	if got := evalCount.Value() - evals; got != calls {
		t.Errorf("unico_ppa_evals_total moved by %d, want %d", got, calls)
	}
	if got := evalInfeasible.Value() - infeasible; got != calls/4 {
		t.Errorf("unico_ppa_infeasible_total moved by %d, want %d", got, calls/4)
	}
	if got := evalSeconds.Count() - timed; got != calls/telemetry.PPAEvalSampleEvery {
		t.Errorf("unico_ppa_eval_seconds observed %d calls, want %d", got, calls/telemetry.PPAEvalSampleEvery)
	}
}
