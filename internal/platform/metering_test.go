package platform

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"unico/internal/camodel"
	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// engineCalls counts the calls an engine stub saw and its capacity
// rejections.
type engineCalls struct {
	calls, infeasible atomic.Uint64
}

func (n *engineCalls) count(err, errInfeasible error) {
	n.calls.Add(1)
	if errors.Is(err, errInfeasible) {
		n.infeasible.Add(1)
	}
}

// countedSpatial is maestro's engine behind Evaluate only (it does not
// offer Bind), counting what it sees.
type countedSpatial struct {
	inner maestro.Engine
	n     *engineCalls
}

func (e countedSpatial) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	met, err := e.inner.Evaluate(c, m, l)
	e.n.count(err, maestro.ErrInfeasible)
	return met, err
}
func (e countedSpatial) Area(c hw.Spatial) float64 { return e.inner.Area(c) }
func (e countedSpatial) EvalCostSeconds() float64  { return e.inner.EvalCostSeconds() }

// countedAscend is countedSpatial for the Ascend-like core.
type countedAscend struct {
	inner camodel.Engine
	n     *engineCalls
}

func (e countedAscend) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	met, err := e.inner.Evaluate(c, m, l)
	e.n.count(err, camodel.ErrInfeasible)
	return met, err
}
func (e countedAscend) Area(c hw.Ascend) float64 { return e.inner.Area(c) }
func (e countedAscend) EvalCostSeconds() float64 { return e.inner.EvalCostSeconds() }

// meterDelta runs f and returns how far it moved the engine's call and
// rejection counters.
func meterDelta(engine string, f func()) (evals, infeasible uint64) {
	e0, i0 := telemetry.PPAEvals(engine).Value(), telemetry.PPAInfeasible(engine).Value()
	f()
	return telemetry.PPAEvals(engine).Value() - e0, telemetry.PPAInfeasible(engine).Value() - i0
}

// TestCoSearchMetering holds unico_ppa_evals_total and
// unico_ppa_infeasible_total to what the engine saw: a fixed co-search on
// two workers moves them by exactly a counting stub's calls and rejections.
// On the spatial platform the same co-search runs again on maestro's engine
// itself, whose jobs evaluate through the bound model, and must move them
// by the same counts.
func TestCoSearchMetering(t *testing.T) {
	opt := core.UNICOOptions(4, 2, 8, 3)
	opt.Workers = 2
	coSearch := func(p core.Platform) func() {
		return func() { core.RunContext(context.Background(), p, opt) }
	}
	ws := []workload.Workload{workload.MobileNet()}

	var spatial engineCalls
	stubbed := NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike)
	stubbed.Engine = countedSpatial{n: &spatial}
	evals, infeasible := meterDelta("maestro", coSearch(stubbed))
	calls, rejects := spatial.calls.Load(), spatial.infeasible.Load()
	if calls == 0 || rejects == 0 {
		t.Fatalf("the co-search made %d calls with %d rejections: it does not test the meters", calls, rejects)
	}
	if evals != calls || infeasible != rejects {
		t.Errorf("Evaluate path: meters moved by %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}
	evals, infeasible = meterDelta("maestro", coSearch(NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike)))
	if evals != calls || infeasible != rejects {
		t.Errorf("bound path: meters moved by %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}

	var ascend engineCalls
	asc := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	asc.Engine = countedAscend{n: &ascend}
	evals, infeasible = meterDelta("camodel", coSearch(asc))
	calls, rejects = ascend.calls.Load(), ascend.infeasible.Load()
	if calls == 0 || rejects == 0 {
		t.Fatalf("the Ascend-like co-search made %d calls with %d rejections: it does not test the meters", calls, rejects)
	}
	if evals != calls || infeasible != rejects {
		t.Errorf("Ascend-like: meters moved by %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}
}
