// Package sh implements successive halving for software-mapping search
// scheduling: the default SH of Jamieson & Talwalkar [29] and the paper's
// modified successive halving (MSH, Section 3.3 and Fig. 4), which promotes
// candidates by terminal value (TV) and by the area under the convergence
// curve (AUC), giving steeply-converging hardware a second chance.
//
// The halving schedule is the paper's and fixed: rate η = 2 (eta) and
// k = ⌊0.5·N⌋ survivors a round (kFrac). Only the AUC share p/N (PFrac), the
// budget and the worker count are settable. Setting PFrac = 0 makes MSH
// degenerate to the default SH exactly, the property paper Section 3.3
// states and the tests verify.
//
// # Pool determinism
//
// Within a rung, alive candidates advance concurrently on the parpool
// worker pool (bounded by Config.Workers). Each candidate's searcher is
// touched by exactly one pool task and owns its own RNG stream, so a rung's
// outcome — every history, every promotion decision — is bit-identical for
// every worker count, including Workers=1 which runs inline with no pool at
// all. Workers trades wall-clock time only; see parpool's package doc for
// the contract the advance loop relies on.
package sh

import (
	"context"
	"math"
	"sort"

	"unico/internal/mapsearch"
	"unico/internal/parpool"
	"unico/internal/perfprof"
	"unico/internal/simclock"
)

// The paper's fixed halving schedule (Algorithm 1 and Section 3.3).
const (
	// eta is the halving rate η: each earlier rung's budget is 1/η of the
	// next one's.
	eta = 2
	// kFrac is the fraction of the current candidates surviving each round,
	// k = ⌊0.5·N⌋.
	kFrac = 0.5
)

// Config parameterizes a successive-halving run.
type Config struct {
	// PFrac is the fraction of the current candidates promoted by AUC
	// (paper: p = ⌊0.15·N⌋; 0 recovers default SH). It is at most kFrac.
	PFrac float64
	// BMax is the maximum per-candidate software-mapping budget b_max.
	BMax int
	// Workers bounds the parallel Advance calls within a round (the
	// per-round job parallelism of paper Fig. 6a).
	Workers int
	// EvalCostSeconds is the simulated cost of one mapping evaluation,
	// charged to Clock per the parallel makespan.
	EvalCostSeconds float64
	// Clock, if non-nil, accrues the simulated wall-clock cost.
	Clock *simclock.Clock
}

// normalize fills zero fields with defaults and validates.
func (c Config) normalize() Config {
	c.PFrac = min(max(c.PFrac, 0), kFrac)
	if c.BMax < 1 {
		c.BMax = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Outcome reports a finished run.
type Outcome struct {
	// Survivors lists the candidate indices alive after the last round.
	Survivors []int
	// TotalEvals is the number of mapping evaluations spent across all
	// candidates.
	TotalEvals int
	// Rounds is the number of successive-halving rounds executed.
	Rounds int
	// RungAlive is the survivor curve: the candidate count entering the
	// schedule, then the count alive after each promotion — e.g. 30 → 15 → 8.
	RungAlive []int
}

// Run schedules the software-mapping searches of a batch of hardware
// candidates with (modified) successive halving. Every job must be fresh
// (zero budget spent). Canceling ctx stops the schedule between (and, for
// cancelable jobs, within) rounds; the outcome then reflects the budget
// actually spent, so callers can checkpoint or discard the partial batch.
func Run(ctx context.Context, jobs []mapsearch.Searcher, cfg Config) Outcome {
	cfg = cfg.normalize()
	n := len(jobs)
	if n == 0 {
		return Outcome{}
	}
	// Budget ladder: the final round reaches BMax per survivor; earlier
	// rounds receive geometrically smaller cumulative budgets
	// (b_r = BMax·η^(r-s), Algorithm 1 lines 2 and 6).
	rounds := int(math.Ceil(math.Log(float64(n)) / math.Log(eta)))
	if rounds < 1 {
		rounds = 1
	}
	cumBudget := make([]int, rounds)
	for r := 0; r < rounds; r++ {
		b := float64(cfg.BMax) * math.Pow(eta, float64(r+1-rounds))
		cumBudget[r] = int(math.Max(1, math.Floor(b)))
	}

	alive := allOf(n)
	totalEvals := 0
	rungAlive := []int{n}
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		rctx, rungSpan := perfprof.Start(ctx, "sh.rung")
		evals := advance(rctx, jobs, alive, cumBudget[r], cfg)
		totalEvals += evals
		if r < rounds-1 {
			alive = Promote(jobs, alive, cfg)
			rungAlive = append(rungAlive, len(alive))
		}
		rungSpan.End()
		if len(alive) <= 1 && r < rounds-1 {
			// Run the lone survivor to full budget.
			fctx, fullSpan := perfprof.Start(ctx, "sh.full_budget")
			totalEvals += advance(fctx, jobs, alive, cfg.BMax, cfg)
			fullSpan.End()
			break
		}
	}
	return Outcome{Survivors: alive, TotalEvals: totalEvals, Rounds: rounds, RungAlive: rungAlive}
}

// FullBudget is the schedule without early stopping — the HASCO-like regime
// of the paper's Fig. 10: one rung that brings every job to BMax, on the same
// worker pool and with the same accounting and cancellation as a rung of Run.
func FullBudget(ctx context.Context, jobs []mapsearch.Searcher, cfg Config) Outcome {
	cfg = cfg.normalize()
	n := len(jobs)
	if n == 0 {
		return Outcome{}
	}
	alive := allOf(n)
	fctx, span := perfprof.Start(ctx, "sh.full_budget")
	evals := advance(fctx, jobs, alive, cfg.BMax, cfg)
	span.End()
	return Outcome{Survivors: alive, TotalEvals: evals, Rounds: 1, RungAlive: []int{n}}
}

// advance brings the alive candidates to the cumulative budget target on the
// bounded worker pool, charges the makespan to the simulated clock, and
// returns the evaluations spent. Each pool task touches only its own
// candidate's searcher, so results are independent of the worker count and
// schedule.
func advance(ctx context.Context, jobs []mapsearch.Searcher, alive []int, target int, cfg Config) int {
	advanced := make([]int, 0, len(alive))
	preSpent := make([]int, 0, len(alive))
	for _, ji := range alive {
		if spent := jobs[ji].Spent(); spent < target {
			advanced = append(advanced, ji)
			preSpent = append(preSpent, spent)
		}
	}
	parpool.ForEach(cfg.Workers, len(advanced), func(i int) {
		mapsearch.AdvanceSearcher(ctx, jobs[advanced[i]], target-preSpent[i])
	})
	// Count what the jobs actually spent, not what was requested: a dead
	// remote job never advances, and charging its planned budget would
	// inflate TotalEvals and the simulated clock with phantom work.
	evals := 0
	for i, ji := range advanced {
		evals += jobs[ji].Spent() - preSpent[i]
	}
	if cfg.Clock != nil && evals > 0 {
		// Makespan: candidates advance in parallel waves over Workers;
		// each costs its budget delta (averaged here) in eval time.
		perCand := float64(evals) / float64(len(alive)) * cfg.EvalCostSeconds
		cfg.Clock.AdvanceParallel(len(alive), perCand, cfg.Workers)
	}
	return evals
}

// allOf is the candidate index list 0..n-1.
func allOf(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Promote selects the surviving candidate indices for the next round: the
// top (k-p) by terminal value, plus the top p by AUC not already selected
// (paper Section 3.3: Hᵏ = H_TV^(k-p) ∪ H_AUC^(p), disjoint).
func Promote(jobs []mapsearch.Searcher, alive []int, cfg Config) []int {
	cfg = cfg.normalize()
	nAlive := len(alive)
	k := int(kFrac * float64(nAlive))
	if k < 1 {
		k = 1
	}
	p := int(cfg.PFrac * float64(nAlive))
	if p > k {
		p = k
	}

	byTV := append([]int(nil), alive...)
	sort.SliceStable(byTV, func(a, b int) bool {
		return terminalValue(jobs[byTV[a]]) < terminalValue(jobs[byTV[b]])
	})
	byAUC := append([]int(nil), alive...)
	sort.SliceStable(byAUC, func(a, b int) bool {
		return auc(jobs[byAUC[a]]) > auc(jobs[byAUC[b]])
	})

	selected := make([]int, 0, k)
	inSet := map[int]bool{}
	for _, ji := range byTV {
		if len(selected) >= k-p {
			break
		}
		selected = append(selected, ji)
		inSet[ji] = true
	}
	for _, ji := range byAUC {
		if len(selected) >= k {
			break
		}
		if inSet[ji] {
			continue
		}
		selected = append(selected, ji)
		inSet[ji] = true
	}
	sort.Ints(selected)
	return selected
}

// terminalValue is the candidate's best loss so far.
func terminalValue(j mapsearch.Searcher) float64 {
	h := j.History()
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h.Last().Loss
}

// auc is the candidate's convergence-rate score (Fig. 4b), computed on the
// feasible suffix of its history so infeasible warm-up plateaus do not
// inflate it.
func auc(j mapsearch.Searcher) float64 {
	return mapsearch.Feasible(j.History()).AUC()
}
