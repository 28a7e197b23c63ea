package mapsearch

import (
	"errors"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// SpatialEngine is the PPA oracle a spatial mapping search runs against.
// maestro.Engine is the canonical implementation; evalcache.Spatial wraps
// one with a content-addressed cache, and tests substitute counting stubs.
// Implementations must be pure functions of their arguments and safe for
// concurrent use — the jobs of a co-search advance in parallel.
type SpatialEngine interface {
	// Evaluate returns the PPA of one (hardware, mapping, layer) triple.
	Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error)
	// Area returns the mapping-independent silicon area of a configuration.
	Area(c hw.Spatial) float64
	// EvalCostSeconds is the simulated wall-clock cost of one evaluation.
	EvalCostSeconds() float64
}

// AscendEngine is the PPA oracle an Ascend-like schedule search runs
// against; camodel.Engine is the canonical implementation. The same purity
// and concurrency requirements as SpatialEngine apply.
type AscendEngine interface {
	// Evaluate simulates one layer under schedule m on core c.
	Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error)
	// Area returns the mapping-independent core area.
	Area(c hw.Ascend) float64
	// EvalCostSeconds is the simulated wall-clock cost of one evaluation.
	EvalCostSeconds() float64
}

// spatialBinder is the optional SpatialEngine extension a job binds to its
// configuration once, as maestro.Engine does: the job then evaluates every
// candidate through the bound model, which skips the per-call layer
// validation, Canon and hardware arithmetic — the layers are validated once
// per Network and the moves return canonical schedules. Engines without it
// (wrappers, caches, stubs) are called through Evaluate. A wrapper that
// embeds maestro.Engine offers Bind too, and its own Evaluate is then never
// called: a wrapper embeds SpatialEngine instead.
type spatialBinder interface {
	Bind(c hw.Spatial) maestro.Bound
}

// engineMeter is where a platform's engine calls are counted: the spatial
// searches' under "maestro", the Ascend-like ones' under "camodel", whatever
// engine the platform was given, and a rejection is a capacity one when it
// is the engine's ErrInfeasible under errors.Is.
type engineMeter struct {
	evals, infeasible *telemetry.Counter
	errInfeasible     error
}

var (
	maestroMeter = engineMeter{telemetry.PPAEvals("maestro"), telemetry.PPAInfeasible("maestro"), maestro.ErrInfeasible}
	camodelMeter = engineMeter{telemetry.PPAEvals("camodel"), telemetry.PPAInfeasible("camodel"), camodel.ErrInfeasible}
)

// tally is one job's engine calls and capacity rejections since its last
// advance, kept in plain fields: a job steps one layer at a time, and
// NetworkSearcher.advance adds the tally to its meter's counters once, so
// no engine call writes memory another job's worker reads.
type tally struct {
	meter             *engineMeter
	calls, infeasible uint64
}

// count records one engine call that returned err.
func (t *tally) count(err error) {
	t.calls++
	if err != nil && errors.Is(err, t.meter.errInfeasible) {
		t.infeasible++
	}
}

// flush adds the tally to the meter's counters, if it counted any call, and
// clears it.
func (t *tally) flush() {
	if t.calls == 0 {
		return
	}
	t.meter.evals.Add(t.calls)
	t.meter.infeasible.Add(t.infeasible)
	t.calls, t.infeasible = 0, 0
}
