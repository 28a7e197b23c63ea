package platform

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"unico/internal/camodel"
	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
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

// recordedWork is what a flight sink records of a run's engine work.
type recordedWork struct{ calls, infeasible uint64 }

func (w *recordedWork) RecordIteration(it flightrec.Iteration) {
	w.calls += it.Work.EngineCalls
	w.infeasible += it.Work.EngineInfeasible
}

// TestCoSearchMetering holds the engine calls and rejections a co-search's
// flight record counts to what the engine saw: a fixed co-search on two
// workers records exactly a counting stub's calls and rejections. On the
// spatial platform the same co-search runs again on maestro's engine itself,
// whose jobs evaluate through the bound model, and must record the same
// counts.
func TestCoSearchMetering(t *testing.T) {
	coSearch := func(p core.Platform) (calls, infeasible uint64) {
		var w recordedWork
		opt := core.UNICOOptions(4, 2, 8, 3)
		opt.Workers, opt.Flight = 2, &w
		core.RunContext(context.Background(), p, opt)
		return w.calls, w.infeasible
	}
	ws := []workload.Workload{workload.MobileNet()}

	var spatial engineCalls
	stubbed := NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike)
	stubbed.Engine = countedSpatial{n: &spatial}
	evals, infeasible := coSearch(stubbed)
	calls, rejects := spatial.calls.Load(), spatial.infeasible.Load()
	if calls == 0 || rejects == 0 {
		t.Fatalf("the co-search made %d calls with %d rejections: it does not test the counts", calls, rejects)
	}
	if evals != calls || infeasible != rejects {
		t.Errorf("Evaluate path: the record counts %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}
	evals, infeasible = coSearch(NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike))
	if evals != calls || infeasible != rejects {
		t.Errorf("bound path: the record counts %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}

	var ascend engineCalls
	asc := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	asc.Engine = countedAscend{n: &ascend}
	evals, infeasible = coSearch(asc)
	calls, rejects = ascend.calls.Load(), ascend.infeasible.Load()
	if calls == 0 || rejects == 0 {
		t.Fatalf("the Ascend-like co-search made %d calls with %d rejections: it does not test the counts", calls, rejects)
	}
	if evals != calls || infeasible != rejects {
		t.Errorf("Ascend-like: the record counts %d calls and %d rejections, the engine saw %d and %d", evals, infeasible, calls, rejects)
	}
}
