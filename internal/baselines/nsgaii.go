package baselines

import (
	"context"
	"math"
	"math/rand"

	"unico/internal/core"
	"unico/internal/mapsearch"
	"unico/internal/pareto"
	"unico/internal/sh"
	"unico/internal/simclock"
)

// NSGAIIOptions parameterizes the NSGA-II baseline.
type NSGAIIOptions struct {
	// Pop is the population size.
	Pop int
	// Generations bounds the evolutionary loop.
	Generations int
	// BMax is the full software-mapping budget spent on every individual.
	BMax int
	// Workers bounds parallel individual evaluations.
	Workers int
	// Seed makes the run deterministic.
	Seed int64
	// Clock accrues simulated wall-clock cost (fresh clock if nil).
	Clock *simclock.Clock
	// TimeBudgetHours stops the run once the clock passes it (0 = no cap).
	TimeBudgetHours float64
}

// The variation operators' parameters: the SBX and polynomial-mutation
// distribution indices. The per-gene mutation probability is 1/dim.
const (
	etaC = 15
	etaM = 20
)

func (o NSGAIIOptions) normalize() NSGAIIOptions {
	if o.Pop < 4 {
		o.Pop = 20
	}
	if o.Pop%2 != 0 {
		o.Pop++
	}
	if o.Generations <= 0 {
		o.Generations = 10
	}
	if o.BMax <= 0 {
		o.BMax = 300
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Clock == nil {
		o.Clock = &simclock.Clock{}
	}
	return o
}

// individual is one population member with its objective vector.
type individual struct {
	x    []float64
	obj  []float64
	rank int
	cd   float64
}

// NSGAII runs the NSGA-II baseline co-search on the platform: every
// individual's fitness is the PPA of its best software mapping found with
// the full b_max budget, so a generation is one sh.FullBudget batch — the
// pool, the clock charge and the spend count of the HASCO-like regime.
// Cancelling ctx discards the generation in flight, as core discards a
// batch: the Result is that of the last complete generation.
func NSGAII(ctx context.Context, p core.Platform, o NSGAIIOptions) core.Result {
	space := p.Space()
	o = o.normalize()
	mutationRate := 1 / float64(space.Dim())
	rng := rand.New(rand.NewSource(o.Seed))
	shCfg := sh.Config{BMax: o.BMax, Workers: o.Workers, EvalCostSeconds: p.EvalCostSeconds(), Clock: o.Clock}

	var res core.Result
	// evaluate runs one generation's searches to full budget and folds them
	// into res; ok is false, and res untouched, when ctx cut it short. Either
	// way the generation's jobs are released before it returns.
	evaluate := func(xs [][]float64, gen int) (inds []individual, ok bool) {
		jobs := make([]mapsearch.Searcher, len(xs))
		for i, x := range xs {
			jobs[i] = p.NewJob(x, o.Seed+int64(gen)*1_000_000+int64(i))
		}
		defer core.CloseJobs(jobs)
		outcome := sh.FullBudget(ctx, jobs, shCfg)
		if ctx.Err() != nil {
			return nil, false
		}
		res.Evals += outcome.TotalEvals
		inds = make([]individual, len(xs))
		for i, cand := range res.Absorb(p, xs, jobs, gen) {
			inds[i] = individual{x: cand.X, obj: cand.Objectives(false)}
		}
		res.Trace = append(res.Trace, core.TracePoint{Iter: gen, Hours: o.Clock.Hours()})
		res.Hours = o.Clock.Hours()
		return inds, true
	}

	// Initial population.
	xs := make([][]float64, o.Pop)
	for i := range xs {
		xs[i] = space.Sample(rng)
	}
	pop, ok := evaluate(xs, 0)
	if !ok {
		return res
	}
	assignRanks(pop)

	for gen := 1; gen <= o.Generations; gen++ {
		if o.TimeBudgetHours > 0 && o.Clock.Hours() >= o.TimeBudgetHours {
			break
		}
		// Variation: binary tournaments, SBX, polynomial mutation.
		children := make([][]float64, 0, o.Pop)
		for len(children) < o.Pop {
			p1 := tournament(pop, rng)
			p2 := tournament(pop, rng)
			c1, c2 := sbx(pop[p1].x, pop[p2].x, etaC, rng)
			c1 = polyMutate(c1, mutationRate, etaM, rng)
			c2 = polyMutate(c2, mutationRate, etaM, rng)
			children = append(children, space.Clip(c1), space.Clip(c2))
		}
		children = children[:o.Pop]
		offspring, ok := evaluate(children, gen)
		if !ok {
			break
		}

		// Environmental selection over parents ∪ offspring.
		union := append(append([]individual(nil), pop...), offspring...)
		pop = selectNext(union, o.Pop)
		assignRanks(pop)
	}
	return res
}

// assignRanks computes non-domination ranks and crowding distances.
func assignRanks(pop []individual) {
	pts := make([][]float64, len(pop))
	for i := range pop {
		pts[i] = pop[i].obj
	}
	fronts := pareto.NonDominatedSort(pts)
	for rank, front := range fronts {
		fp := make([][]float64, len(front))
		for i, idx := range front {
			fp[i] = pts[idx]
		}
		cds := pareto.CrowdingDistance(fp)
		for i, idx := range front {
			pop[idx].rank = rank
			pop[idx].cd = cds[i]
		}
	}
}

// tournament returns the index of the crowded-comparison winner of two
// random members.
func tournament(pop []individual, rng *rand.Rand) int {
	i := rng.Intn(len(pop))
	j := rng.Intn(len(pop))
	if crowdedLess(pop[j], pop[i]) {
		return j
	}
	return i
}

// crowdedLess is NSGA-II's crowded-comparison operator (≺): lower rank, or
// equal rank and larger crowding distance.
func crowdedLess(a, b individual) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.cd > b.cd
}

// selectNext fills the next population front-by-front, breaking the last
// front by crowding distance.
func selectNext(union []individual, n int) []individual {
	pts := make([][]float64, len(union))
	for i := range union {
		pts[i] = union[i].obj
	}
	fronts := pareto.NonDominatedSort(pts)
	next := make([]individual, 0, n)
	for rank, front := range fronts {
		fp := make([][]float64, len(front))
		for i, idx := range front {
			fp[i] = pts[idx]
		}
		cds := pareto.CrowdingDistance(fp)
		for i, idx := range front {
			union[idx].rank = rank
			union[idx].cd = cds[i]
		}
		if len(next)+len(front) <= n {
			for _, idx := range front {
				next = append(next, union[idx])
			}
			continue
		}
		// Partial front: take the most crowded-distant members.
		rest := append([]int(nil), front...)
		sortByCD(rest, union)
		for _, idx := range rest {
			if len(next) == n {
				break
			}
			next = append(next, union[idx])
		}
		break
	}
	return next
}

// sortByCD sorts indices by descending crowding distance (insertion sort;
// fronts are small).
func sortByCD(idx []int, union []individual) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && union[idx[j]].cd > union[idx[j-1]].cd; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// sbx is simulated binary crossover on unit-cube vectors.
func sbx(a, b []float64, etaC float64, rng *rand.Rand) ([]float64, []float64) {
	c1 := append([]float64(nil), a...)
	c2 := append([]float64(nil), b...)
	for i := range a {
		if rng.Float64() > 0.9 {
			continue
		}
		u := rng.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(etaC+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(etaC+1))
		}
		c1[i] = clamp01(0.5 * ((1+beta)*a[i] + (1-beta)*b[i]))
		c2[i] = clamp01(0.5 * ((1-beta)*a[i] + (1+beta)*b[i]))
	}
	return c1, c2
}

// polyMutate is polynomial mutation on unit-cube vectors.
func polyMutate(x []float64, rate, etaM float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), x...)
	for i := range out {
		if rng.Float64() > rate {
			continue
		}
		u := rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(etaM+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(etaM+1))
		}
		out[i] = clamp01(out[i] + delta)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
