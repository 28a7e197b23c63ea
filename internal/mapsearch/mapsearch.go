// Package mapsearch implements the software-mapping exploration tools of the
// inner co-optimization level (paper Section 2.1 and Fig. 2).
//
// Each platform plugs in one searcher, as the paper plugs one mature tool
// into each of its platforms:
//
//   - Annealer: a temperature-scheduled mutation search with restart, the
//     stand-in for FlexTensor's scheduler [68], on the open-source spatial
//     platform.
//   - DepthFirstFusion (in ascend.go): the depth-first buffer-fusion search
//     of the Ascend-like platform (Section 4.1).
//
// The co-optimizer sees either only through LayerSearcher and Searcher, so
// another tool that keeps the contract below plugs in at the same seam.
//
// Both searchers honour the mature-tool contract of paper Section 3.1: a Step
// spends one unit of evaluation budget and calls Problem.Evaluate at most
// once, the best-so-far loss is monotone non-increasing in budget, and
// searches are resumable so successive halving can hand out budget in
// installments. A Step does only new work: a layer's moves and its
// depth-first walk are built once per workload (Network), a spatial job
// binds maestro's model to its hardware once, seeds are computed at the
// first Step, and the annealer takes a proposal equal to its current
// schedule at the metrics it already holds — engines are pure, so that is
// the engine's answer, and the step's budget is spent all the same.
//
// A NetworkSearcher aggregates per-layer searchers into the network-level
// search the co-optimizer drives: each budget unit advances one layer
// (weighted by its share of the network's MACs) and the network history
// records the aggregate (latency, power, EDP) of the per-layer bests.
//
// The package writes no process-wide metric: a job tallies its engine calls
// and rejections (Searcher.Tally), and its layer steps are Spent × layers.
package mapsearch

import (
	"math"
	"math/rand"

	"unico/internal/ppa"
)

// Problem defines one layer's mapping search space: candidate generation,
// neighbourhood moves, evaluation and warm-start seeds.
type Problem[M any] interface {
	// Random draws a uniformly random candidate.
	Random(rng *rand.Rand) M
	// Mutate returns a neighbour of m.
	Mutate(rng *rand.Rand, m M) M
	// Evaluate returns the candidate's metrics, or an error if it is
	// infeasible on the hardware under search.
	Evaluate(m M) (ppa.Metrics, error)
	// Seeds returns the deterministic candidates a search evaluates before
	// any random exploration. Platforms start from the minimal
	// (always-legal) schedule plus a capacity-guided guess, the warm start
	// mature mapping tools apply.
	Seeds() []M
}

// LayerSearcher is a resumable single-layer mapping search. A Step spends
// one unit of evaluation budget and calls Problem.Evaluate at most once.
type LayerSearcher interface {
	// Step spends one unit of evaluation budget.
	Step()
	// Best returns the metrics of the best feasible mapping found, and
	// whether any feasible mapping has been found yet.
	Best() (ppa.Metrics, bool)
	// Last returns the metrics of the most recently evaluated candidate
	// (feasible or not): the raw sample the robustness metric observes.
	Last() (ppa.Metrics, bool)
	// Evals returns the units of evaluation budget spent: the steps taken.
	Evals() int
}

// Loss is the mapping-search objective: energy-delay product, so that both
// latency and power movements are visible to the robustness metric
// (paper Section 3.4).
func Loss(m ppa.Metrics) float64 { return m.EDP() }

// Annealer is a simulated-annealing mapping search with periodic restarts,
// standing in for FlexTensor. The acceptance temperature is set relative to
// the running loss scale so the schedule is workload-independent.
type Annealer[M comparable] struct {
	prob Problem[M]
	rng  *rand.Rand

	cur      M
	curLoss  float64
	curMet   ppa.Metrics // cur's metrics: a proposal equal to cur reuses them
	hasCur   bool
	best     M
	bestLoss float64
	bestMet  ppa.Metrics
	hasBest  bool
	lastMet  ppa.Metrics
	lastOK   bool
	evals    int

	// restartEvery forces a random restart after this many non-improving
	// steps, escaping basins the mutation moves cannot leave.
	restartEvery int
	sinceImprove int
	seeds        []M
}

// NewAnnealer builds an annealing searcher over the problem.
func NewAnnealer[M comparable](prob Problem[M], rng *rand.Rand) *Annealer[M] {
	return &Annealer[M]{
		prob: prob, rng: rng,
		curLoss: math.Inf(1), bestLoss: math.Inf(1),
		restartEvery: 60,
	}
}

// Step spends one unit of evaluation budget. A proposal equal to the current
// schedule takes the current schedule's metrics instead of calling the
// engine. That is exact: engines are pure, cur is only ever a feasible
// result, and the step then runs as the engine's answer would have run it —
// the same loss, so the same acceptance and the same draws.
func (a *Annealer[M]) Step() {
	if a.evals == 0 {
		a.seeds = a.prob.Seeds()
	}
	var cand M
	switch {
	case a.evals < len(a.seeds):
		cand = a.seeds[a.evals]
	case !a.hasCur || a.sinceImprove >= a.restartEvery:
		cand = a.prob.Random(a.rng)
		a.sinceImprove = 0
	default:
		cand = a.prob.Mutate(a.rng, a.cur)
	}
	a.evals++
	var met ppa.Metrics
	var err error
	if a.hasCur && cand == a.cur {
		met = a.curMet
	} else {
		met, err = a.prob.Evaluate(cand)
	}
	if err != nil {
		a.lastOK = false
		a.sinceImprove++
		return
	}
	a.lastMet, a.lastOK = met, true
	loss := Loss(met)
	// Metropolis acceptance with a temperature proportional to the current
	// loss scale, cooling with the evaluation count.
	temp := 0.3 * a.curLoss / (1 + float64(a.evals)/40)
	accept := !a.hasCur || loss <= a.curLoss
	if !accept && temp > 0 && !math.IsInf(a.curLoss, 1) {
		accept = a.rng.Float64() < math.Exp(-(loss-a.curLoss)/temp)
	}
	if accept {
		a.cur, a.curLoss, a.curMet, a.hasCur = cand, loss, met, true
	}
	if loss < a.bestLoss {
		a.best, a.bestLoss, a.bestMet, a.hasBest = cand, loss, met, true
		a.sinceImprove = 0
	} else {
		a.sinceImprove++
	}
}

// Best returns the best feasible metrics found so far.
func (a *Annealer[M]) Best() (ppa.Metrics, bool) { return a.bestMet, a.hasBest }

// Last returns the most recent evaluation's metrics.
func (a *Annealer[M]) Last() (ppa.Metrics, bool) { return a.lastMet, a.lastOK }

// Evals returns the units of evaluation budget spent.
func (a *Annealer[M]) Evals() int { return a.evals }
