// Package mobo implements the multi-objective Bayesian optimization of
// UNICO's outer level (paper Section 3.2): per-objective Gaussian-process
// surrogates, ParEGO scalarization (Eq. 1), batched acquisition by expected
// improvement over random scalarizations, and the paper's High Fidelity
// Update Rule — the UUL-thresholded selection of which evaluated hardware
// samples may refine the surrogate.
//
// The optimizer minimizes every objective. Objectives are modeled in log
// space (they are positive and span orders of magnitude) and normalized to
// [0,1] for scalarization.
//
// # Warm-started surrogates
//
// Update refits the per-objective GPs incrementally when it can: newly
// admitted observations extend the existing factors in O(n²)
// (gp.ExtendAll, once per distinct factor), and a full hyperparameter
// re-selection — one grid fit shared by all objectives, each warm-started at
// its previous optimum (gp.FitAutoAll) — runs only every refitEvery (5)
// updates, when the per-point log marginal likelihood degrades past a
// tolerance, or when eviction rewrote the training set.
// Both fan their independent factor work out over the search worker pool.
// The exported State carries each surrogate's hyperparameters, jitter and
// refit reference, so a checkpoint restore rebuilds bit-identical GPs with
// gp.FitWithParamsAll instead of re-running (and possibly re-deciding) the
// grid search.
//
// # Tiled acquisition, deterministic results
//
// The acquisition search scores candidates a tile at a time: up to
// gp.TileWidth candidates go through all the objectives' GPs at once, which
// shares the distance pass, the kernel columns and the factor solves the
// objectives have in common. And it pays only for candidates that can win.
// The acquisition rises with each posterior mean and falls as a variance
// grows, so gp.Envelope's lower bounds on the means and upper bounds on the
// variances (no exponential, no solve) bound every score from below, exactly
// in floating point. One fan-out over a bounded worker pool
// (Config.SearchWorkers, internal/parpool) bounds the pool's tiles while the
// incumbent refinement chains run beside them (in lock-step, one tile
// holding the current step of every chain, their posteriors read through a
// memo that lives for one SuggestBatch); the lowest bounds are then scored
// exactly, and a second fan-out scores whoever else has a bound no higher
// than the best score seen. A candidate left unscored could neither have won
// nor tied. An exact score computes the means, then runs the O(n²) solves
// only if the candidate can still win: the acquisition at its exact means and
// its envelope variances bounds its score from below, and a candidate whose
// bound is above the score to beat skips its solves (gp.PredictTile's
// predicate). The chains' steps are bounded and skipped the same way, against
// the values a step must beat to move its chain.
//
// The result is bit-identical for every worker count, to scoring every
// candidate, and to scoring each candidate alone: all draws from the
// optimizer's counted RNG happen serially before the fan-out (the pool
// samples, plus one seed per refinement chain), workers write bounds and
// scores into slots indexed by candidate, chains use private RNGs built from
// their pre-drawn seeds, and the merge scans slots in index order with
// strictly-lower-wins ties. The optimizer's RNG is consumed only inside
// SuggestBatch, never in Update — the checkpoint/resume contract.
package mobo

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"unico/internal/gp"
	"unico/internal/lfg"
	"unico/internal/parpool"
	"unico/internal/perfprof"
)

// Space abstracts a finite hardware design space embedded in the unit
// hypercube. Both hw.SpatialSpace and hw.AscendSpace satisfy it.
type Space interface {
	Dim() int
	Sample(rng *rand.Rand) []float64
	// SampleInto makes Sample's draws into x, which holds Dim coordinates.
	SampleInto(rng *rand.Rand, x []float64)
	Clip(x []float64) []float64
	Neighbor(x []float64, rng *rand.Rand) []float64
	Key(x []float64) string
}

// Observation is one evaluated hardware configuration with its objective
// vector (latency, power, area[, sensitivity]).
type Observation struct {
	X []float64
	Y []float64
}

// UpdateRule selects which evaluated samples refine the surrogate.
type UpdateRule int

const (
	// HighFidelity is the paper's UUL-thresholded rule (Section 3.2).
	HighFidelity UpdateRule = iota
	// Champion adds only the batch's best sample per iteration, the vanilla
	// rule of the Fig. 10 ablation (and effectively HASCO's behaviour).
	Champion
	// AllSamples adds every evaluated sample (a further baseline).
	AllSamples
)

func (u UpdateRule) String() string {
	switch u {
	case HighFidelity:
		return "high-fidelity"
	case Champion:
		return "champion"
	default:
		return "all"
	}
}

// The optimizer's fixed settings: the paper's values (Section 3.2) and the
// acquisition search's.
const (
	// rho is the ParEGO augmentation coefficient of Eq. 1.
	rho = 0.2
	// uulQuantile is the D-set percentile that refreshes the Upper Update
	// Limit.
	uulQuantile = 0.95
	// poolSize is the random candidate pool per acquisition maximization.
	poolSize = 256
	// explore is the weight of the UCB-style exploration bonus the
	// acquisition subtracts. It is a bonus, never a penalty: the search
	// prunes on uncertainty only ever lowering a score.
	explore = 1.0
	// refitEvery is the hyperparameter re-selection cadence: a full
	// (warm-started) grid search runs every refitEvery surrogate updates;
	// in between, new observations extend the fitted GPs incrementally.
	// Marginal-likelihood degradation or training-set eviction forces an
	// early refit regardless.
	refitEvery = 5
)

// Config parameterizes the optimizer.
type Config struct {
	// Weights are the ParEGO importance weights w_j (must sum to 1); their
	// length fixes the number of objectives.
	Weights []float64
	// Rule selects the surrogate update rule.
	Rule UpdateRule
	// MaxTrain caps the surrogate training set: when exceeded, the oldest
	// non-elite points are evicted (cubic-cost Gaussian processes need a
	// sliding window on long runs).
	MaxTrain int
	// SearchWorkers bounds the goroutines of the acquisition search's
	// fan-outs in SuggestBatch and of the surrogate refits in Update.
	// Results are bit-identical for every value;
	// <= 1 runs serially. It deliberately stays out of the core run
	// fingerprint so checkpoints resume across different worker counts.
	SearchWorkers int
}

// DefaultConfig returns the paper's settings for nObj objectives with equal
// importance weights.
func DefaultConfig(nObj int) Config {
	w := make([]float64, nObj)
	for i := range w {
		w[i] = 1 / float64(nObj)
	}
	return Config{Weights: w, Rule: HighFidelity, MaxTrain: 150}
}

// Optimizer is the MOBO hardware explorer.
type Optimizer struct {
	space Space
	cfg   Config
	seed  int64
	rng   *rand.Rand
	src   *countingSource

	// train is the surrogate's training set (the high-fidelity subset of
	// all evaluations); all keeps every observation for normalization and
	// duplicate suppression.
	train []Observation
	all   []Observation
	seen  map[string]bool

	gps []*gp.GP
	// refLML is the per-point log marginal likelihood of each objective's
	// surrogate at its last full (re)fit — the reference the incremental
	// path checks for degradation. sinceRefit counts surrogate updates
	// since that refit.
	refLML     []float64
	sinceRefit int

	// High-fidelity update state.
	vBest float64
	dSet  []float64
	uul   float64

	// Log-objective normalization bounds over all observations.
	lo, hi []float64

	acq    acqScratch
	counts Counts
}

// Counts is an optimizer's work since it was built, in fields only it
// writes: surrogate Fits (one per objective of a grid fit, gp.FitAutoAll)
// and Extends (factor rows gp.ExtendAll bordered), and the acquisition
// pool's candidates: all Bounded (gp.Envelope), Solved if the bound could
// still win (exact means), Completed if the variance solve ran too.
type Counts struct {
	Fits, Extends, Bounded, Solved, Completed uint64
}

// Counts returns the optimizer's work since it was built.
func (o *Optimizer) Counts() Counts { return o.counts }

// New builds an optimizer over the space.
func New(space Space, cfg Config, seed int64) *Optimizer {
	if len(cfg.Weights) == 0 {
		panic("mobo: Config.Weights must be non-empty")
	}
	if cfg.MaxTrain <= 0 {
		cfg.MaxTrain = 150
	}
	if cfg.SearchWorkers <= 0 {
		cfg.SearchWorkers = 1
	}
	nObj := len(cfg.Weights)
	src := newCountingSource(seed)
	return &Optimizer{
		space: space,
		cfg:   cfg,
		seed:  seed,
		rng:   rand.New(src),
		src:   src,
		seen:  map[string]bool{},
		vBest: math.Inf(1),
		uul:   math.Inf(1),
		lo:    make([]float64, nObj),
		hi:    make([]float64, nObj),
		acq:   newAcqScratch(poolSize, nObj),
	}
}

// NumObjectives returns the objective dimensionality.
func (o *Optimizer) NumObjectives() int { return len(o.cfg.Weights) }

// TrainSize returns the surrogate training-set size.
func (o *Optimizer) TrainSize() int { return len(o.train) }

// UUL returns the current Upper Update Limit.
func (o *Optimizer) UUL() float64 { return o.uul }

// SuggestBatch proposes n distinct unevaluated configurations: random while
// the surrogate is cold, acquisition-guided afterwards.
func (o *Optimizer) SuggestBatch(n int) [][]float64 {
	defer perfprof.Begin("mobo.suggest").End()
	batch := make([][]float64, 0, n)
	batchSeen := map[string]bool{}
	add := func(x []float64) bool {
		k := o.space.Key(x)
		if o.seen[k] || batchSeen[k] {
			return false
		}
		batchSeen[k] = true
		batch = append(batch, x)
		return true
	}
	useModel := o.gps != nil
	o.acq.dropMemo()
	for tries := 0; len(batch) < n && tries < 200*n; tries++ {
		if !useModel {
			add(o.space.Sample(o.rng))
			continue
		}
		// One random ParEGO scalarization per batch slot diversifies the
		// batch across the Pareto front (Knowles' batched ParEGO).
		lambda := o.randomSimplex()
		x := o.maximizeAcquisition(lambda, batchSeen)
		if !add(slices.Clone(x)) {
			// Acquisition landed on a duplicate: fall back to exploration.
			add(o.space.Sample(o.rng))
		}
	}
	return batch
}

// randomSimplex draws a weight vector uniformly from the simplex.
func (o *Optimizer) randomSimplex() []float64 {
	n := o.NumObjectives()
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = -math.Log(1 - o.rng.Float64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// acqChains is the number of incumbent refinement chains per acquisition
// maximization, and acqSteps the hill-climb length of each.
const (
	acqChains = 3
	acqSteps  = 16
)

// One step of every chain must fit one tile.
var _ [gp.TileWidth - acqChains]struct{}

// maximizeAcquisition searches the candidate pool plus local neighbourhoods
// of the incumbents for the point with the best (lowest) scalarized
// lower-confidence bound under the weights lambda.
//
// Only candidates that can still win pay for their means and variances. One
// fan-out runs the refinement chains (item 0) next to the pool's tiles,
// which are bounded from below with no exponential and no solve
// (boundTile). The candidates are then ordered by (bound, index), the tile
// of the lowest bounds not excluded is scored exactly (scoreCandidates), and
// threshold = min(that tile's best, the chains' best) decides who else is:
// the run of the order whose bound is <= threshold, less the excluded ones,
// regrouped into full tiles for a second fan-out. A pruned candidate has
// score >= bound > threshold >= the winner's score, so it can neither win
// nor tie, and the merge below picks the point scoring every
// candidate would have picked. An exact score skips its solves the same way,
// and scores +Inf, when its exact means and envelope variances already put
// it above the chains' best (first tile) or above threshold (second
// fan-out).
//
// The search is bit-identical for every worker count: every draw from the
// optimizer's counted RNG happens up front on the calling goroutine
// (fallback sample, pool samples, one seed per chain — a fixed number of
// draws), workers write bounds and scores into slots indexed by candidate,
// each chain hill-climbs with a private RNG seeded from its pre-drawn seed,
// and the serial merge scans slots in index order accepting only strictly
// better scores — the same tie-break a serial loop applies.
//
// The fallback sample and the pool are drawn into the optimizer's scratch,
// so the point returned may be scratch too: it holds until the next
// maximization, and a caller that keeps it copies it.
func (o *Optimizer) maximizeAcquisition(lambda []float64, exclude map[string]bool) []float64 {
	// Serial phase: all counted-RNG draws, in a schedule-independent order.
	sc := &o.acq
	draws := sc.drawRows(1+poolSize, o.space.Dim())
	for _, x := range draws {
		o.space.SampleInto(o.rng, x)
	}
	best, pool := draws[0], draws[1:]
	incumbents := o.topTrain(acqChains, lambda)
	seeds := make([]int64, len(incumbents))
	for i := range seeds {
		seeds[i] = o.rng.Int63()
	}

	// Phase 1: local refinement around the best training points under this
	// lambda, one chain per incumbent, each on a private RNG — next to a
	// lower bound for every pool candidate.
	sp := perfprof.Begin("mobo.acq_pool")
	bounds, scores := sc.bounds, sc.scores
	var chainX [][]float64
	var chainA []float64
	nTiles := (len(pool) + gp.TileWidth - 1) / gp.TileWidth
	o.fanOut(1+nTiles, func(t int) {
		if t == 0 {
			rs := perfprof.Begin("mobo.acq_refine")
			chainX, chainA = o.refineChains(incumbents, seeds, lambda, exclude)
			rs.End()
			return
		}
		o.boundPoolTile(pool, t-1, lambda)
	})

	// Phase 2: exact scores for the candidates that can still win, walking
	// them by (bound, index) and skipping the excluded ones, which score
	// +Inf. A bound is finite or, past a degenerate surrogate, NaN; a NaN
	// candidate scores NaN and never wins, so it is left out too. Only the
	// candidates the walk reaches are checked for exclusion, which builds a
	// key.
	order := sc.order[:0]
	for i, b := range bounds {
		scores[i] = math.Inf(1)
		if b < math.Inf(1) {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(bounds[a], bounds[b]); c != 0 {
			return c
		}
		return a - b
	})
	chainBest := math.Inf(1)
	for _, a := range chainA {
		if a < chainBest {
			chainBest = a
		}
	}
	first, next := sc.first[:0], 0
	for ; next < len(order) && len(first) < gp.TileWidth; next++ {
		if i := order[next]; !o.excluded(pool[i], exclude) {
			first = append(first, i)
		}
	}
	completed := o.scoreCandidates(pool, first, lambda, chainBest)
	threshold := chainBest
	for _, i := range first {
		if scores[i] < threshold {
			threshold = scores[i]
		}
	}
	rest := sc.rest[:0]
	for ; next < len(order) && bounds[order[next]] <= threshold; next++ {
		if i := order[next]; !o.excluded(pool[i], exclude) {
			rest = append(rest, i)
		}
	}
	completed += o.scoreCandidates(pool, rest, lambda, threshold)
	sp.End()
	o.counts.Bounded += uint64(len(pool))
	o.counts.Solved += uint64(len(first) + len(rest))
	o.counts.Completed += uint64(completed)

	// Merge: the pool in index order, then the chains, strictly lower wins.
	bestA := math.Inf(1)
	for i, a := range scores {
		if a < bestA {
			best, bestA = pool[i], a
		}
	}
	for c, a := range chainA {
		if a < bestA {
			best, bestA = chainX[c], a
		}
	}
	return best
}

// fanOut runs fn(i) for every i in [0, n) over Config.SearchWorkers
// goroutines — the one worker pool both phases of the acquisition search
// and the surrogates' fits and extends (as their gp.Fanout) share. fn writes
// only slots owned by its index.
func (o *Optimizer) fanOut(n int, fn func(i int)) {
	//unicolint:allow ctxflow CPU-bound local scoring pool; ForEach returns when our own workers finish, there is no remote peer to hang on
	parpool.ForEach(o.cfg.SearchWorkers, n, fn)
}

// boundPoolTile writes the bounds of pool tile t (candidates t·gp.TileWidth
// up to the next tile or the pool's end) into acq.bounds, and their envelope
// variances into acq.vars.
func (o *Optimizer) boundPoolTile(pool [][]float64, t int, lambda []float64) {
	sc, nObj := &o.acq, o.NumObjectives()
	lo := t * gp.TileWidth
	hi := min(lo+gp.TileWidth, len(pool))
	mean := sc.tilePost(t, hi-lo)[:(hi-lo)*nObj]
	o.boundTile(pool[lo:hi], lambda, mean, sc.vars[lo*nObj:hi*nObj], sc.bounds[lo:hi])
}

// scoreCandidates writes the exact acquisition value of pool[i] into
// acq.scores[i] for every i of idx, or +Inf when it is sure to exceed limit,
// gathered into full tiles (scorePoolTile) fanned out over the worker pool.
// boundPoolTile must have bounded the candidates. It returns how many were
// solved.
func (o *Optimizer) scoreCandidates(pool [][]float64, idx []int, lambda []float64, limit float64) int {
	sc := &o.acq
	var completed atomic.Int64
	o.fanOut((len(idx)+gp.TileWidth-1)/gp.TileWidth, func(t int) {
		tile := idx[t*gp.TileWidth : min((t+1)*gp.TileWidth, len(idx))]
		var out [gp.TileWidth]float64
		completed.Add(int64(o.scorePoolTile(pool, tile, lambda, limit, sc.tilePost(t, len(tile)), out[:len(tile)])))
		for k, i := range tile {
			sc.scores[i] = out[k]
		}
	})
	return int(completed.Load())
}

// scorePoolTile writes the exact acquisition value of pool[i], for each i of
// tile (at most gp.TileWidth of them), into out, or +Inf when it is sure to
// exceed limit (exactScores, from the envelope variances boundPoolTile left
// in acq.vars), and returns how many candidates were solved. post is scratch
// for the posterior, 2·len(tile)·NumObjectives long.
func (o *Optimizer) scorePoolTile(pool [][]float64, tile []int, lambda []float64, limit float64, post, out []float64) (completed int) {
	var (
		xs  [gp.TileWidth][]float64
		lim [gp.TileWidth]float64
	)
	nObj, m := o.NumObjectives(), len(tile)
	mean, variance := post[:len(post)/2], post[len(post)/2:]
	for k, i := range tile {
		xs[k], lim[k] = pool[i], limit
		copy(variance[k*nObj:(k+1)*nObj], o.acq.vars[i*nObj:(i+1)*nObj])
	}
	solved := o.exactScores(xs[:m], lambda, lim[:m], mean, variance, out, nil)
	for _, s := range solved[:m] {
		if s {
			completed++
		}
	}
	return completed
}

// exactScores writes into out the exact acquisition value of each candidate
// of xs (at most gp.TileWidth of them), or +Inf for one whose acquisition at
// its exact means and the variance bounds the caller put in its variance
// slots is above limit[k]: gp.PredictTile skips that candidate's solves, and
// as the acquisition only falls as a variance grows (bonus), its score is
// above limit[k] too. A solved candidate scores the bits a lone gp.Predict
// gives, whatever tile it rode in; solved tells which were. raw, when
// non-nil, receives each candidate's raw means in raw[k] before they are
// normalized in place.
func (o *Optimizer) exactScores(xs [][]float64, lambda, limit, mean, variance, out []float64, raw [][]float64) (solved [gp.TileWidth]bool) {
	nObj := o.NumObjectives()
	var s [gp.TileWidth]float64
	gp.PredictTile(o.gps, xs, mean, variance, func(k int) bool {
		mu := mean[k*nObj : (k+1)*nObj]
		if raw != nil {
			copy(raw[k], mu)
		}
		s[k] = o.meanTerm(mu, lambda)
		solved[k] = !(s[k]-o.bonus(variance[k*nObj:(k+1)*nObj], lambda) > limit[k])
		return solved[k]
	})
	for k := range xs {
		out[k] = math.Inf(1)
		if solved[k] {
			out[k] = s[k] - o.bonus(variance[k*nObj:(k+1)*nObj], lambda)
		}
	}
	return solved
}

// refineChains hill-climbs acqSteps lattice steps from each incumbent, chain
// c drawing its moves from a private RNG seeded with seeds[c], and returns
// the best non-excluded point each chain visited with its acquisition value
// (+Inf when it found none). The chains advance in lock-step — step s of
// all of them is scored as one tile — but share nothing else: each is the
// walk it would be on its own. Posteriors come through the batch's memo
// (scoreMemoized): the posterior at a point does not depend on lambda, and
// the chains of a batch's slots start from the same few incumbents.
//
// A step skips its solves when it is sure to change nothing (stepLimit), and
// it scores +Inf, which changes nothing either.
func (o *Optimizer) refineChains(incumbents [][]float64, seeds []int64, lambda []float64, exclude map[string]bool) (bestX [][]float64, bestA []float64) {
	nc := len(incumbents)
	post := make([]float64, 2*nc*o.NumObjectives())
	crng := make([]*rand.Rand, nc)
	for c := range crng {
		crng[c] = lfg.New(seeds[c])
	}
	x, ax := append([][]float64(nil), incumbents...), make([]float64, nc)
	limit := make([]float64, nc)
	for c := range limit {
		limit[c] = math.Inf(1)
	}
	o.scoreMemoized(x, lambda, limit, post, ax)
	y, ay := make([][]float64, nc), make([]float64, nc)
	bestX, bestA = make([][]float64, nc), make([]float64, nc)
	for c := range bestA {
		bestA[c] = math.Inf(1)
	}
	for step := 0; step < acqSteps; step++ {
		for c := range y {
			y[c] = o.space.Neighbor(x[c], crng[c])
			// Exclusion moves the limit only when bestA[c] is the larger,
			// and a lookup builds a key: ask only then.
			limit[c] = stepLimit(ax[c], bestA[c], bestA[c] > ax[c] && o.excluded(y[c], exclude))
		}
		o.scoreMemoized(y, lambda, limit, post, ay)
		for c := range y {
			if ay[c] < bestA[c] && !o.excluded(y[c], exclude) {
				bestX[c], bestA[c] = y[c], ay[c]
			}
			if ay[c] < ax[c] {
				x[c], ax[c] = y[c], ay[c]
			}
		}
	}
	return bestX, bestA
}

// stepLimit is the limit a chain step is scored against (scoreMemoized),
// from the chain's current value ax, its best bestA and whether the step's
// point is excluded: a step at or above max(ax, bestA), or ax alone for an
// excluded point, changes nothing. A step is skipped strictly above its
// limit, and "at least L" is "above the float below L".
func stepLimit(ax, bestA float64, excluded bool) float64 {
	l := ax
	if !excluded && bestA > l {
		l = bestA
	}
	if l < math.Inf(1) {
		l = math.Nextafter(l, math.Inf(-1))
	}
	return l
}

// excluded reports whether x is already evaluated or already in the batch
// being assembled. Safe for concurrent use while the maps are read-only
// (during maximizeAcquisition's fan-out).
func (o *Optimizer) excluded(x []float64, exclude map[string]bool) bool {
	k := o.space.Key(x)
	return exclude[k] || o.seen[k]
}

// boundTile writes a lower bound on the acquisition value of each candidate
// of xs (at most gp.TileWidth of them) into out, with no exponential and no
// solve: the acquisition at gp.Envelope's lower bounds on the means and
// upper bounds on the variances. It never falls as a mean grows
// (normalizing, λ_j >= 0, max and sum are monotone) nor rises as a variance
// does (bonus), so out[k] <= the exact score, exactly. mean (scratch) and
// variance, len(xs)·NumObjectives long each, receive the envelope's bounds;
// mean is normalized in place.
func (o *Optimizer) boundTile(xs [][]float64, lambda, mean, variance, out []float64) {
	gp.Envelope(o.gps, xs, mean, variance)
	o.acquisition(mean, variance, lambda, out)
}

// acquisition turns posteriors (mean[k*nObj+j], variance[k*nObj+j] for
// candidate k, objective j) into acquisition values. The acquisition is the
// scalarized lower-confidence bound: the per-objective posterior means
// (normalized log space) scalarized with the augmented Tchebycheff form,
// minus an exploration bonus from the scalarized standard deviation. Lower
// is better. mean is normalized in place.
func (o *Optimizer) acquisition(mean, variance, lambda, out []float64) {
	nObj := o.NumObjectives()
	for k := range out {
		out[k] = o.meanTerm(mean[k*nObj:(k+1)*nObj], lambda) - o.bonus(variance[k*nObj:(k+1)*nObj], lambda)
	}
}

// meanTerm normalizes one candidate's posterior means mu in place and
// returns their scalarization, the first term of its acquisition.
func (o *Optimizer) meanTerm(mu, lambda []float64) float64 {
	for j := range mu {
		mu[j] = o.normalize(j, mu[j])
	}
	return scalarize(mu, lambda, rho)
}

// bonus is the exploration bonus of one candidate with posterior variances
// v, the term its acquisition subtracts. Each step — √, ÷ span, × λ_j ≥ 0,
// squaring a non-negative, the sum, √ and × explore ≥ 0 — keeps <= in
// floating point, so a larger variance never gives a smaller bonus.
func (o *Optimizer) bonus(v, lambda []float64) float64 {
	var varSum float64
	for j := range v {
		span := o.hi[j] - o.lo[j]
		if span <= 0 {
			span = 1
		}
		sd := lambda[j] * (math.Sqrt(v[j]) / span)
		varSum += sd * sd
	}
	return explore * math.Sqrt(varSum)
}

// scoreMemoized writes the exact acquisition value of each candidate of xs
// (at most gp.TileWidth of them) into out, or +Inf when it is sure to exceed
// limit[k], through the posterior memo. A point whose solve ran is read from
// the memo. A new point enters it with gp.Envelope's bounds on its means and
// variances. A point that is not solved is bounded from what the memo holds:
// when that bound exceeds the limit, it costs nothing more. Every other lane
// goes through exactScores, in one tile, from the memo's variance bounds, and
// the memo keeps its exact means and, when it was solved, its exact
// variances. post is scratch for the posterior, 2·len(xs)·NumObjectives
// long. Only the goroutine running the refinement chains calls it: the memo
// takes no lock.
func (o *Optimizer) scoreMemoized(xs [][]float64, lambda, limit, post, out []float64) {
	sc := &o.acq
	nObj := o.NumObjectives()
	mean, variance := post[:len(post)/2], post[len(post)/2:]
	var (
		at      [gp.TileWidth]int // lane -> memo entry
		whole   [gp.TileWidth]bool
		lanes   [gp.TileWidth]int // new points, then lanes to predict
		laneX   [gp.TileWidth][]float64
		missLim [gp.TileWidth]float64
		raw     [gp.TileWidth][]float64
		n       int
	)
	for k, x := range xs {
		key := sc.memoKey(x)
		e, ok := sc.memo[string(key)]
		if !ok {
			e = sc.claim(nObj)
			sc.memo[string(key)] = e
			lanes[n], laneX[n] = k, x
			n++
		}
		at[k] = e
	}
	if n > 0 {
		mu, v := mean[:n*nObj], variance[:n*nObj]
		gp.Envelope(o.gps, laneX[:n], mu, v)
		for r, k := range lanes[:n] {
			copy(sc.memoPost[2*nObj*at[k]:], mu[r*nObj:(r+1)*nObj])
			copy(sc.memoPost[2*nObj*at[k]+nObj:], v[r*nObj:(r+1)*nObj])
		}
	}
	n = 0
	for k, x := range xs {
		e := at[k]
		if whole[k] = sc.memoFull[e]; whole[k] {
			continue
		}
		mu, v := mean[k*nObj:(k+1)*nObj], variance[k*nObj:(k+1)*nObj]
		copy(mu, sc.memoPost[2*nObj*e:])
		copy(v, sc.memoPost[2*nObj*e+nObj:2*nObj*(e+1)])
		if o.meanTerm(mu, lambda)-o.bonus(v, lambda) > limit[k] {
			out[k] = math.Inf(1)
			continue
		}
		lanes[n], laneX[n], missLim[n] = k, x, limit[k]
		raw[n] = sc.memoPost[2*nObj*e : 2*nObj*e+nObj]
		copy(variance[n*nObj:(n+1)*nObj], v)
		n++
	}
	if n > 0 {
		mu, v := mean[:n*nObj], variance[:n*nObj]
		var missOut [gp.TileWidth]float64
		solved := o.exactScores(laneX[:n], lambda, missLim[:n], mu, v, missOut[:n], raw[:n])
		for r, k := range lanes[:n] {
			out[k] = missOut[r]
			copy(sc.memoPost[2*nObj*at[k]+nObj:], v[r*nObj:(r+1)*nObj])
			sc.memoFull[at[k]] = solved[r]
		}
	}
	for k, e := range at[:len(xs)] {
		if whole[k] {
			mu, v := mean[:nObj], variance[:nObj]
			copy(mu, sc.memoPost[2*nObj*e:])
			copy(v, sc.memoPost[2*nObj*e+nObj:])
			o.acquisition(mu, v, lambda, out[k:k+1])
		}
	}
}

// acqScratch is the acquisition search's working set, kept on the Optimizer
// so a maximization allocates the points it draws and little else.
type acqScratch struct {
	// post is posterior scratch, perPoint = 2·NumObjectives values per pool
	// candidate: tile t of either fan-out owns the stretch tilePost(t, ·).
	post     []float64
	perPoint int
	// bounds[i] is the lower bound on pool candidate i's score and scores[i]
	// its exact score, +Inf where there is none; vars[i·NumObjectives:] holds
	// its envelope variances; order holds the bounded candidates' indices by
	// (bound, index), and first and rest those the two exact fan-outs score.
	bounds, scores, vars []float64
	order, first, rest   []int
	// draws holds a maximization's fallback sample, then its pool: rows of
	// Dim coordinates over one backing array, drawn afresh by each.
	draws [][]float64

	// memo maps a point — its coordinates bit for bit, not its lattice
	// cell: an off-centre training input shares a cell with the centre but
	// not a posterior — to its entry e under the current surrogates:
	// memoPost[2·NumObjectives·e:] holds its NumObjectives means, then as
	// many variances: the means exact once it went through exactScores, else
	// gp.Envelope's bounds; the variances exact when memoFull[e] (it was
	// solved), else gp.Envelope's bounds. It lives for one SuggestBatch
	// (whose slots' chains keep revisiting the same points) and is dropped
	// whenever the surrogates change; key is the lookup key's buffer.
	memo     map[string]int
	memoPost []float64
	memoFull []bool
	key      []byte

	// norm holds the training points' normalized log objectives,
	// norm[i·NumObjectives+j] for point i, once normed: topTrain computes
	// them on its first call after dropMemo, since neither the training set
	// nor the bounds change while the memo lives.
	norm   []float64
	normed bool
}

// newAcqScratch sizes the scratch for pools of n candidates under nObj
// objectives.
func newAcqScratch(n, nObj int) acqScratch {
	return acqScratch{
		post:     make([]float64, n*2*nObj),
		perPoint: 2 * nObj,
		bounds:   make([]float64, n),
		scores:   make([]float64, n),
		vars:     make([]float64, n*nObj),
		order:    make([]int, 0, n),
		first:    make([]int, 0, gp.TileWidth),
		rest:     make([]int, 0, n),
		memo:     map[string]int{},
	}
}

// drawRows returns n rows of dim coordinates, the draws scratch, sized at
// the first call.
func (sc *acqScratch) drawRows(n, dim int) [][]float64 {
	if sc.draws == nil {
		flat := make([]float64, n*dim)
		sc.draws = make([][]float64, n)
		for i := range sc.draws {
			sc.draws[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
	}
	return sc.draws
}

// tilePost returns tile t's stretch of the posterior scratch, for m
// candidates.
func (sc *acqScratch) tilePost(t, m int) []float64 {
	at := t * gp.TileWidth * sc.perPoint
	return sc.post[at : at+m*sc.perPoint]
}

func (sc *acqScratch) memoKey(x []float64) []byte {
	sc.key = sc.key[:0]
	for _, v := range x {
		sc.key = binary.LittleEndian.AppendUint64(sc.key, math.Float64bits(v))
	}
	return sc.key
}

// claim adds a memo entry, its contents unset, and returns it.
func (sc *acqScratch) claim(nObj int) int {
	n := len(sc.memoPost)
	sc.memoPost = slices.Grow(sc.memoPost, 2*nObj)[:n+2*nObj]
	sc.memoFull = append(sc.memoFull, false)
	return len(sc.memoFull) - 1
}

// dropMemo forgets every memoized posterior, keeping the memory.
func (sc *acqScratch) dropMemo() {
	clear(sc.memo)
	sc.memoPost, sc.memoFull = sc.memoPost[:0], sc.memoFull[:0]
	sc.normed = false
}

// topTrain returns the inputs of the best k training points under lambda,
// as sort.Slice orders them from training order. The normalized objectives
// are the memo's (acqScratch.norm), so each call after the first of a batch
// only scalarizes them: scalarizeObs's values, bit for bit.
func (o *Optimizer) topTrain(k int, lambda []float64) [][]float64 {
	type scored struct {
		x []float64
		v float64
	}
	nObj, sc := o.NumObjectives(), &o.acq
	if !sc.normed {
		sc.norm = sc.norm[:0]
		for _, ob := range o.train {
			for j, y := range ob.Y {
				sc.norm = append(sc.norm, o.normalize(j, logc(y)))
			}
		}
		sc.normed = true
	}
	items := make([]scored, len(o.train))
	for i, ob := range o.train {
		items[i] = scored{ob.X, scalarize(sc.norm[i*nObj:(i+1)*nObj], lambda, rho)}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].v < items[b].v })
	if k > len(items) {
		k = len(items)
	}
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = items[i].x
	}
	return out
}

// ScalarizeParEGO computes v_ParEGO of a raw objective vector under the
// configured importance weights (paper Eq. 1):
//
//	v = max_j(w_j·ŷ_j) + ρ·Σ_j w_j·ŷ_j
//
// with ŷ the normalized log objectives.
func (o *Optimizer) ScalarizeParEGO(y []float64) float64 {
	defer perfprof.Begin("mobo.scalarize").End()
	return o.scalarizeObs(y, o.cfg.Weights, make([]float64, len(y)))
}

// scalarizeObs scalarizes a raw objective vector under lambda; norm is
// scratch of len(y), so loops over many observations reuse one buffer.
func (o *Optimizer) scalarizeObs(y, lambda, norm []float64) float64 {
	for j := range y {
		norm[j] = o.normalize(j, logc(y[j]))
	}
	return scalarize(norm, lambda, rho)
}

// scalarize is the augmented Tchebycheff form on already-normalized values.
func scalarize(norm, lambda []float64, rho float64) float64 {
	if len(norm) != len(lambda) {
		panic(fmt.Sprintf("mobo: scalarize got %d values, %d weights", len(norm), len(lambda)))
	}
	maxTerm := math.Inf(-1)
	sum := 0.0
	for j := range norm {
		t := lambda[j] * norm[j]
		if t > maxTerm {
			maxTerm = t
		}
		sum += t
	}
	return maxTerm + rho*sum
}

// normalize maps a log-objective value into [0,1] using the observed bounds.
func (o *Optimizer) normalize(j int, logY float64) float64 {
	span := o.hi[j] - o.lo[j]
	if span <= 0 {
		return 0
	}
	v := (logY - o.lo[j]) / span
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// logc is a guarded log for positive objectives.
func logc(v float64) float64 {
	if v < 1e-30 {
		v = 1e-30
	}
	return math.Log(v)
}

// Update ingests a batch of evaluated observations per the configured
// surrogate update rule, refits the GPs, and returns the number of samples
// admitted to the training set.
func (o *Optimizer) Update(batch []Observation) int {
	defer perfprof.Begin("mobo.update").End()
	if len(batch) == 0 {
		return 0
	}
	for _, ob := range batch {
		if len(ob.Y) != o.NumObjectives() {
			panic(fmt.Sprintf("mobo: observation has %d objectives, want %d", len(ob.Y), o.NumObjectives()))
		}
		o.all = append(o.all, ob)
		o.seen[o.space.Key(ob.X)] = true
	}
	o.refreshBounds()

	var admitted []Observation
	switch o.cfg.Rule {
	case AllSamples:
		admitted = batch
	case Champion:
		best := 0
		for i := range batch {
			if o.ScalarizeParEGO(batch[i].Y) < o.ScalarizeParEGO(batch[best].Y) {
				best = i
			}
		}
		admitted = []Observation{batch[best]}
	default:
		admitted = o.highFidelitySelect(batch)
	}
	o.train = append(o.train, admitted...)
	evicted := o.evictStale()
	o.refit(len(admitted), evicted)
	return len(admitted)
}

// evictStale trims the training set to MaxTrain points, keeping the best
// quarter by ParEGO scalar (the elites anchoring the optimum region) and
// the most recent remainder. It reports whether the set changed (which
// invalidates the fitted surrogates for incremental extension).
func (o *Optimizer) evictStale() bool {
	max := o.cfg.MaxTrain
	if len(o.train) <= max {
		return false
	}
	elite := max / 4
	// Scalarize each point once, not twice per comparison: every
	// ScalarizeParEGO call is a profiler span, and a sort makes thousands.
	idx := make([]int, len(o.train))
	v := make([]float64, len(o.train))
	norm := make([]float64, o.NumObjectives())
	for i, ob := range o.train {
		idx[i] = i
		v[i] = o.scalarizeObs(ob.Y, o.cfg.Weights, norm)
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	keep := map[int]bool{}
	for _, i := range idx[:elite] {
		keep[i] = true
	}
	// Fill the rest with the most recent observations.
	for i := len(o.train) - 1; i >= 0 && len(keep) < max; i-- {
		keep[i] = true
	}
	next := make([]Observation, 0, max)
	for i, ob := range o.train {
		if keep[i] {
			next = append(next, ob)
		}
	}
	o.train = next
	return true
}

// highFidelitySelect implements the High Fidelity Update Rule of Section 3.2:
//
//	Step 1: v = v_ParEGO(Y) for each sample of the batch;
//	Step 2: d = ‖v − v_best‖₂ against the best scalar seen so far;
//	Step 3: admit samples with d ≤ UUL, adding their d to the set D;
//	Step 4: UUL ← the uulQuantile (95%) percentile of D.
func (o *Optimizer) highFidelitySelect(batch []Observation) []Observation {
	type scored struct {
		ob Observation
		v  float64
		d  float64
	}
	items := make([]scored, len(batch))
	for i, ob := range batch {
		v := o.ScalarizeParEGO(ob.Y)
		items[i] = scored{ob: ob, v: v}
		if v < o.vBest {
			o.vBest = v
		}
	}
	var admitted []Observation
	for i := range items {
		items[i].d = math.Abs(items[i].v - o.vBest)
		if items[i].d <= o.uul {
			admitted = append(admitted, items[i].ob)
			o.dSet = append(o.dSet, items[i].d)
		}
	}
	if len(admitted) == 0 {
		// Never starve the surrogate: admit the batch champion.
		best := 0
		for i := range items {
			if items[i].v < items[best].v {
				best = i
			}
		}
		admitted = []Observation{items[best].ob}
		o.dSet = append(o.dSet, items[best].d)
	}
	o.uul = percentile(o.dSet, uulQuantile)
	return admitted
}

// refreshBounds recomputes the per-objective log bounds over all
// observations.
func (o *Optimizer) refreshBounds() {
	for j := 0; j < o.NumObjectives(); j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, ob := range o.all {
			v := logc(ob.Y[j])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		o.lo[j], o.hi[j] = lo, hi
	}
}

// lmlDegradeTol is the per-point log-marginal-likelihood drop (in nats)
// the incremental path tolerates before forcing a full hyperparameter
// refit.
const lmlDegradeTol = 0.5

// refit brings the surrogates up to date after Update appended `added`
// training points. The cheap path extends the fitted GPs' factors in O(n²)
// per point; a full warm-started grid search runs on the refitEvery cadence,
// on marginal-likelihood degradation, after eviction, or whenever there is
// no fitted model to extend. Neither path draws from the optimizer's RNG.
// Either way the posteriors the acquisition search memoized are stale.
func (o *Optimizer) refit(added int, evicted bool) {
	o.acq.dropMemo()
	if len(o.train) < 3 {
		o.clearSurrogates()
		return
	}
	if o.gps == nil || evicted || o.sinceRefit+1 >= refitEvery {
		o.fitFull(o.warmParams())
		return
	}
	// One bordered extend per distinct factor and admitted point, the
	// factors on the search worker pool. A failed extend changes no GP; the
	// full refit rebuilds every objective from o.train.
	xs, ys := o.trainTargets(o.train[len(o.train)-added:])
	extends, err := gp.ExtendAll(o.gps, xs, ys, o.fanOut)
	o.counts.Extends += uint64(extends)
	if err != nil {
		o.fitFull(o.warmParams())
		return
	}
	for j, g := range o.gps {
		if g.LogMarginalLikelihood()/float64(g.N()) < o.refLML[j]-lmlDegradeTol {
			o.fitFull(o.warmParams())
			return
		}
	}
	o.sinceRefit++
}

// warmParams collects the fitted surrogates' hyperparameters to warm-start
// the next grid search, or nil when there is nothing to warm-start from.
func (o *Optimizer) warmParams() []gp.Params {
	if o.gps == nil {
		return nil
	}
	out := make([]gp.Params, len(o.gps))
	for j, g := range o.gps {
		p, ok := g.Params()
		if !ok {
			return nil
		}
		out[j] = p
	}
	return out
}

func (o *Optimizer) clearSurrogates() {
	o.gps, o.refLML, o.sinceRefit = nil, nil, 0
}

// fit refits one GP per objective on the training set from scratch
// (Restore's fallback and the cold-start path).
func (o *Optimizer) fit() { o.fitFull(nil) }

// fitFull runs the full per-objective hyperparameter selection, seeded at
// warm (one Params per objective) when non-nil: one shared grid fit
// (gp.FitAutoAll), its per-lengthscale jobs on the search worker pool.
func (o *Optimizer) fitFull(warm []gp.Params) {
	if len(o.train) < 3 {
		o.clearSurrogates()
		return
	}
	xs, ys := o.trainTargets(o.train)
	var prev []*gp.Params
	if warm != nil {
		prev = make([]*gp.Params, len(warm))
		for j := range warm {
			prev[j] = &warm[j]
		}
	}
	o.counts.Fits += uint64(len(ys))
	gps, err := gp.FitAutoAll(xs, ys, prev, o.fanOut)
	if err != nil {
		o.clearSurrogates()
		return
	}
	refLML := make([]float64, len(gps))
	for j, g := range gps {
		refLML[j] = g.LogMarginalLikelihood() / float64(g.N())
	}
	o.gps, o.refLML, o.sinceRefit = gps, refLML, 0
}

// trainTargets splits observations into the surrogates' shared inputs and
// one log-objective target vector per objective.
func (o *Optimizer) trainTargets(obs []Observation) (xs [][]float64, ys [][]float64) {
	xs = make([][]float64, len(obs))
	for i, ob := range obs {
		xs[i] = ob.X
	}
	ys = make([][]float64, o.NumObjectives())
	for j := range ys {
		ys[j] = make([]float64, len(obs))
		for i, ob := range obs {
			ys[j][i] = logc(ob.Y[j])
		}
	}
	return xs, ys
}

// percentile returns element ⌊q·(n−1)⌋ (0-based) of a sorted copy of v: not
// nearest-rank, which for n = 10 and q = 0.95 gives element 9 where this gives 8.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
