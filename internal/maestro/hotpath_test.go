package maestro

import (
	"errors"
	"strings"
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

// TestEvaluateWritesNoMetrics holds the engine pure: a thousand calls, a
// quarter of them rejected, leave every series of the process's registry as
// it was. A mapping search meters its own calls (mapsearch's
// TestCoSearchMetering).
func TestEvaluateWritesNoMetrics(t *testing.T) {
	var e Engine
	c, l := testHW(), testLayer()
	m := minimalMapping(l)
	tiny, big := l1Reject()
	var before, after strings.Builder
	telemetry.DefaultRegistry.WritePrometheus(&before)
	for i := 0; i < 1000; i++ {
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
	telemetry.DefaultRegistry.WritePrometheus(&after)
	if before.String() != after.String() {
		t.Errorf("Evaluate moved the registry:\n%s\nbecame\n%s", before.String(), after.String())
	}
}
