// Package baselines implements the comparison methods of the paper's
// evaluation: the HASCO-like co-optimizer [64], a multi-objective BOHB
// (MOBOHB, after [18]) and NSGA-II [13].
//
// HASCO and MOBOHB are algorithmic presets over the same core.Run engine —
// exactly how the paper frames them (Fig. 10: "HASCO can be viewed as
// ChampionUpdate without SH"; Section 4.2: "MOBOHB, which also uses
// successive halving"). NSGA-II is an independent full implementation with
// fast non-dominated sorting, crowding-distance selection, simulated binary
// crossover and polynomial mutation.
package baselines

import (
	"unico/internal/core"
	"unico/internal/mobo"
)

// HASCOOptions returns the HASCO-like configuration: Bayesian-optimization
// hardware sampling with champion surrogate updates, full software-mapping
// budget for every sampled hardware (no early stopping) and sequential
// evaluation — the regime whose cost columns Tables 1-2 report.
func HASCOOptions(batch, maxIter, bmax int, seed int64) core.Options {
	return core.Options{
		BatchSize:      batch,
		MaxIter:        maxIter,
		BMax:           bmax,
		DisableSH:      true,
		MSHPromoteFrac: 0,
		UseRobustness:  false,
		UpdateRule:     mobo.Champion,
		Workers:        1,
		Seed:           seed,
	}
}

// MOBOHBOptions returns the multi-objective BOHB configuration: MOBO
// hardware sampling with *default* successive halving (no AUC promotion),
// model updates from all evaluated samples, parallel jobs, no robustness
// objective.
func MOBOHBOptions(batch, maxIter, bmax int, seed int64) core.Options {
	return core.Options{
		BatchSize:      batch,
		MaxIter:        maxIter,
		BMax:           bmax,
		MSHPromoteFrac: 0,
		UseRobustness:  false,
		UpdateRule:     mobo.AllSamples,
		Workers:        8,
		Seed:           seed,
	}
}

// SHChampionOptions returns the "SH + ChampionUpdate" ablation of Fig. 10:
// default successive halving with the vanilla surrogate update.
func SHChampionOptions(batch, maxIter, bmax int, seed int64) core.Options {
	return core.Options{
		BatchSize:      batch,
		MaxIter:        maxIter,
		BMax:           bmax,
		MSHPromoteFrac: 0,
		UseRobustness:  false,
		UpdateRule:     mobo.Champion,
		Workers:        8,
		Seed:           seed,
	}
}

// MSHChampionOptions returns the "MSH + ChampionUpdate" ablation of Fig. 10:
// modified successive halving, vanilla surrogate update.
func MSHChampionOptions(batch, maxIter, bmax int, seed int64) core.Options {
	opt := SHChampionOptions(batch, maxIter, bmax, seed)
	opt.MSHPromoteFrac = 0.15
	return opt
}
