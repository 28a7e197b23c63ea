package mapsearch

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// countingEngine is maestro's engine, pure as every SpatialEngine must be,
// with a count of its Evaluate calls. It embeds the interface, so it does
// not offer maestro's Bind and every call comes through Evaluate.
type countingEngine struct {
	SpatialEngine
	calls *atomic.Int64
}

func newCountingEngine(calls *atomic.Int64) countingEngine {
	return countingEngine{SpatialEngine: maestro.Engine{}, calls: calls}
}

func (e countingEngine) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	e.calls.Add(1)
	return e.SpatialEngine.Evaluate(c, m, l)
}

// refAnnealer is the annealer as it was before a proposal equal to the
// current schedule reused that schedule's metrics: every step calls the
// engine. It counts the steps whose proposal equalled cur, which are the
// engine calls Annealer skips.
type refAnnealer struct {
	prob Problem[mapping.Spatial]
	rng  *rand.Rand

	cur                 mapping.Spatial
	curLoss             float64
	hasCur              bool
	best                mapping.Spatial
	bestLoss            float64
	bestMet             ppa.Metrics
	hasBest             bool
	lastMet             ppa.Metrics
	lastOK              bool
	evals, reuses       int
	restartEvery, since int
	seeds               []mapping.Spatial
}

func newRefAnnealer(prob Problem[mapping.Spatial], rng *rand.Rand) *refAnnealer {
	return &refAnnealer{prob: prob, rng: rng, curLoss: math.Inf(1), bestLoss: math.Inf(1),
		restartEvery: 60, seeds: prob.Seeds()}
}

func (a *refAnnealer) Step() {
	var cand mapping.Spatial
	switch {
	case a.evals < len(a.seeds):
		cand = a.seeds[a.evals]
	case !a.hasCur || a.since >= a.restartEvery:
		cand = a.prob.Random(a.rng)
		a.since = 0
	default:
		cand = a.prob.Mutate(a.rng, a.cur)
	}
	if a.hasCur && cand == a.cur {
		a.reuses++
	}
	a.evals++
	met, err := a.prob.Evaluate(cand)
	if err != nil {
		a.lastOK = false
		a.since++
		return
	}
	a.lastMet, a.lastOK = met, true
	loss := Loss(met)
	temp := 0.3 * a.curLoss / (1 + float64(a.evals)/40)
	accept := !a.hasCur || loss <= a.curLoss
	if !accept && temp > 0 && !math.IsInf(a.curLoss, 1) {
		accept = a.rng.Float64() < math.Exp(-(loss-a.curLoss)/temp)
	}
	if accept {
		a.cur, a.curLoss, a.hasCur = cand, loss, true
	}
	if loss < a.bestLoss {
		a.best, a.bestLoss, a.bestMet, a.hasBest = cand, loss, met, true
		a.since = 0
	} else {
		a.since++
	}
}

func (a *refAnnealer) Best() (ppa.Metrics, bool) { return a.bestMet, a.hasBest }
func (a *refAnnealer) Last() (ppa.Metrics, bool) { return a.lastMet, a.lastOK }
func (a *refAnnealer) Evals() int                { return a.evals }

// TestAnnealerReuseMatchesAlwaysEvaluating runs network searches of
// annealers against searches of refAnnealers, which call the engine every
// step, on the same Network, seeds and hardware. Histories, bests, each
// layer's best schedule and generator position must be equal, and the
// annealers must call the engine exactly once per step whose proposal was
// not the current schedule.
func TestAnnealerReuseMatchesAlwaysEvaluating(t *testing.T) {
	net := NewNetwork(workload.MobileNetV3Small())
	space := hw.NewSpatialSpace(hw.Edge)
	rng := rand.New(rand.NewSource(3))
	const units = 150 // past the annealer's 60-step restarts on the small layers
	totalReuses := 0
	for trial := 0; trial < 6; trial++ {
		cfg := space.Decode(space.Sample(rng))
		seed := int64(trial + 1)

		var calls, refCalls atomic.Int64
		got := net.Spatial(newCountingEngine(&calls), cfg, seed)
		refs := make([]*refAnnealer, len(net.spatialMoves()))
		layers := make([]LayerSearcher, len(refs))
		want := net.searcher(layers, maestro.Engine{}.Area(cfg))
		job := &spatialJob{eng: newCountingEngine(&refCalls), cfg: cfg, tally: &want.tally}
		for i := range refs {
			prob := &spatialProblem{job: job, moves: &net.spatialMoves()[i]}
			refs[i] = newRefAnnealer(prob, newLayerRand(seed, i))
			layers[i] = refs[i]
		}
		got.Advance(units / 3)
		got.Advance(units - units/3)
		want.Advance(units)

		if !reflect.DeepEqual(got.History(), want.History()) {
			t.Fatalf("trial %d: History differs from the always-evaluating annealers", trial)
		}
		if !reflect.DeepEqual(got.RawHistory(), want.RawHistory()) {
			t.Fatalf("trial %d: RawHistory differs from the always-evaluating annealers", trial)
		}
		gm, gok := got.Best()
		wm, wok := want.Best()
		if gm != wm || gok != wok {
			t.Fatalf("trial %d: Best %v %v, always evaluating %v %v", trial, gm, gok, wm, wok)
		}
		steps, reuses := 0, 0
		for i, ls := range got.layers {
			a, ref := ls.(*Annealer[mapping.Spatial]), refs[i]
			if a.best != ref.best || a.hasBest != ref.hasBest {
				t.Fatalf("trial %d layer %d: best candidate %v %v, always evaluating %v %v", trial, i, a.best, a.hasBest, ref.best, ref.hasBest)
			}
			if a.Evals() != ref.Evals() {
				t.Fatalf("trial %d layer %d: %d steps, always evaluating %d", trial, i, a.Evals(), ref.Evals())
			}
			if g, w := a.rng.Int63(), ref.rng.Int63(); g != w {
				t.Fatalf("trial %d layer %d: generator left at another position", trial, i)
			}
			steps += ref.evals
			reuses += ref.reuses
		}
		if refCalls.Load() != int64(steps) {
			t.Fatalf("trial %d: reference made %d engine calls over %d steps", trial, refCalls.Load(), steps)
		}
		if calls.Load() != int64(steps-reuses) {
			t.Errorf("trial %d: %d engine calls, want steps − reuses = %d − %d", trial, calls.Load(), steps, reuses)
		}
		if tl := got.Tally(); tl.Calls != uint64(calls.Load()) || want.Tally().Calls != uint64(refCalls.Load()) {
			t.Errorf("trial %d: tallies %d and %d calls, the engines saw %d and %d", trial, tl.Calls, want.Tally().Calls, calls.Load(), refCalls.Load())
		}
		totalReuses += reuses
	}
	if totalReuses == 0 {
		t.Error("no proposal ever equalled the current schedule: the test does not reach the reuse")
	}
}
