package mobo

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"unico/internal/gp"
)

// scoreTile is the exact scoring the acquisition search ran before exact
// scores reused the bound pass's kernel columns: one full gp.PredictTile of
// the candidates xs (at most gp.TileWidth), their acquisition values into
// out. post is scratch for the posterior, 2·len(xs)·NumObjectives long.
func (o *Optimizer) scoreTile(xs [][]float64, lambda, post, out []float64) {
	mean, variance := post[:len(post)/2], post[len(post)/2:]
	gp.PredictTile(o.gps, xs, mean, variance, nil)
	o.acquisition(mean, variance, lambda, out)
}

// scorePoolReference is the exhaustive pool scoring the acquisition search
// ran before it bounded candidates first: an exact score for every pool
// candidate, +Inf for the excluded ones.
func scorePoolReference(o *Optimizer, pool [][]float64, lambda []float64, exclude map[string]bool) []float64 {
	scores := make([]float64, len(pool))
	post := make([]float64, 2*gp.TileWidth*o.NumObjectives())
	for lo := 0; lo < len(pool); lo += gp.TileWidth {
		hi := min(lo+gp.TileWidth, len(pool))
		o.scoreTile(pool[lo:hi], lambda, post[:2*(hi-lo)*o.NumObjectives()], scores[lo:hi])
		for i := lo; i < hi; i++ {
			if o.excluded(pool[i], exclude) {
				scores[i] = math.Inf(1)
			}
		}
	}
	return scores
}

// refineChainsReference is refineChains without the memo: every step of
// every chain predicted afresh.
func refineChainsReference(o *Optimizer, incumbents [][]float64, seeds []int64, lambda []float64, exclude map[string]bool) (bestX [][]float64, bestA []float64) {
	nc := len(incumbents)
	post := make([]float64, 2*nc*o.NumObjectives())
	crng := make([]*rand.Rand, nc)
	for c := range crng {
		crng[c] = rand.New(rand.NewSource(seeds[c]))
	}
	x, ax := append([][]float64(nil), incumbents...), make([]float64, nc)
	o.scoreTile(x, lambda, post, ax)
	y, ay := make([][]float64, nc), make([]float64, nc)
	bestX, bestA = make([][]float64, nc), make([]float64, nc)
	for c := range bestA {
		bestA[c] = math.Inf(1)
	}
	for step := 0; step < acqSteps; step++ {
		for c := range y {
			y[c] = o.space.Neighbor(x[c], crng[c])
		}
		o.scoreTile(y, lambda, post, ay)
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

// maximizeAcquisitionReference is maximizeAcquisition as it stood before the
// bound: the same draws, every pool candidate scored, the chains walked after
// the pool, the same merge. It also reports the winning value and the chains'
// results, which the crafted cases below are built from.
func maximizeAcquisitionReference(o *Optimizer, lambda []float64, exclude map[string]bool) (best []float64, bestA float64, chainX [][]float64, chainA []float64) {
	best = o.space.Sample(o.rng)
	pool := make([][]float64, poolSize)
	for i := range pool {
		pool[i] = o.space.Sample(o.rng)
	}
	incumbents := o.topTrain(acqChains, lambda)
	seeds := make([]int64, len(incumbents))
	for i := range seeds {
		seeds[i] = o.rng.Int63()
	}
	bestA = math.Inf(1)
	for i, a := range scorePoolReference(o, pool, lambda, exclude) {
		if a < bestA {
			best, bestA = pool[i], a
		}
	}
	chainX, chainA = refineChainsReference(o, incumbents, seeds, lambda, exclude)
	for c, a := range chainA {
		if a < bestA {
			best, bestA = chainX[c], a
		}
	}
	return best, bestA, chainX, chainA
}

// handBuilt returns an optimizer holding the given surrogates and log
// bounds, for tests that need GP sets a driven optimizer never produces.
func handBuilt(gps []*gp.GP, lo, hi []float64) *Optimizer {
	o := New(testSpace(), DefaultConfig(len(gps)), 1)
	o.gps = gps
	copy(o.lo, lo)
	copy(o.hi, hi)
	return o
}

// TestBoundNeverExceedsScore is the chain of bounds the pruning rests on,
// compared on the floats with no tolerance: for every candidate,
// boundPoolTile's bound (the envelope means and variances) <= the
// acquisition at the exact means and the envelope variances (what the
// exact scorers check against their limit) <= scoreTile's score. And the
// exact score scorePoolTile builds, in another lane of another tile, is
// scoreTile's, with ==. The GP sets
// cover shared and distinct hyperparameters, a signal variance of 2.5
// (k(x,x) is not 1), a training set of 3, an objective whose span is 0, and
// noise-free GPs queried on their own training inputs, where the variance
// clamps to 1e-12; the candidates are lattice samples, off-lattice points
// and the training inputs themselves.
//
// It was shown to catch bounding with half the envelope's variance
// (varianceBound returning scaledVariance((prior − q)/2)).
func TestBoundNeverExceedsScore(t *testing.T) {
	space := testSpace()
	rng := rand.New(rand.NewSource(17))
	inputs := func(n int) ([][]float64, [][]float64) {
		x := make([][]float64, n)
		y := make([][]float64, n)
		for i := range x {
			x[i] = space.Sample(rng)
			y[i] = synthObjectives(x[i], 4)
		}
		return x, y
	}
	column := func(y [][]float64, j int) []float64 {
		out := make([]float64, len(y))
		for i := range y {
			out[i] = logc(y[i][j])
		}
		return out
	}
	withParams := func(x, y [][]float64, ps ...gp.Params) []*gp.GP {
		gps := make([]*gp.GP, len(ps))
		for j, p := range ps {
			g, err := gp.FitWithParams(x, column(y, j), p, 0)
			if err != nil {
				t.Fatal(err)
			}
			gps[j] = g
		}
		return gps
	}
	a := gp.Params{Lengthscale: 0.6, Variance: 1, Noise: 0.05}
	b := gp.Params{Lengthscale: 0.15, Variance: 1, Noise: 1e-4}
	c := gp.Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}
	unit := func(n int) ([]float64, []float64) {
		lo, hi := make([]float64, n), make([]float64, n)
		for j := range hi {
			hi[j] = 1.5
		}
		return lo, hi
	}

	type gpSet struct {
		name    string
		o       *Optimizer
		train   [][]float64
		clamped bool // every variance at a training input must clamp
	}
	var sets []gpSet
	add := func(name string, gps []*gp.GP, train [][]float64, flatObjective, clamped bool) {
		lo, hi := unit(len(gps))
		if flatObjective {
			hi[1] = lo[1]
		}
		sets = append(sets, gpSet{name, handBuilt(gps, lo, hi), train, clamped})
	}
	x40, y40 := inputs(40)
	add("shared", withParams(x40, y40, a, a, a, a), x40, false, false)
	add("distinct", withParams(x40, y40, a, b, c, a), x40, false, false)
	add("span-0", withParams(x40, y40, a, b, c), x40, true, false)
	add("variance-2.5", withParams(x40, y40, gp.Params{Lengthscale: 0.4, Variance: 2.5, Noise: 1e-3}, c), x40, false, false)
	x3, y3 := inputs(3)
	add("three-points", withParams(x3, y3, a, b), x3, false, false)
	x5, y5 := inputs(5)
	// Noise 0 factors at jitter 0 on these five points, the jitter
	// linalg.CholeskyWithJitter settles on.
	noiseFree := gp.Params{Lengthscale: 0.3, Variance: 1}
	add("noise-free", withParams(x5, y5, noiseFree, noiseFree), x5, false, true)

	for _, set := range sets {
		o := set.o
		nObj := o.NumObjectives()
		cands := append([][]float64(nil), set.train...)
		for i := 0; i < 200; i++ {
			x := space.Sample(rng)
			if i%2 == 1 {
				for d := range x {
					x[d] = rng.Float64()
				}
			}
			cands = append(cands, x)
		}
		for trial := 0; trial < 4; trial++ {
			lambda := o.randomSimplex()
			if trial == 3 {
				lambda[0], lambda[1] = lambda[0]+lambda[1], 0
			}
			o.acq = newAcqScratch(len(cands), nObj)
			for lo := 0; lo < len(cands); lo += gp.TileWidth {
				hi := min(lo+gp.TileWidth, len(cands))
				xs := cands[lo:hi]
				post := make([]float64, 2*len(xs)*nObj)
				mid, score, kept := make([]float64, len(xs)), make([]float64, len(xs)), make([]float64, len(xs))
				o.boundPoolTile(cands, lo/gp.TileWidth, lambda)
				bound := o.acq.bounds[lo:hi]
				mean, variance := post[:len(post)/2], post[len(post)/2:]
				gp.PredictTile(o.gps, xs, mean, variance, nil)
				copy(variance, o.acq.vars[lo*nObj:hi*nObj])
				o.acquisition(mean, variance, lambda, mid)
				o.scoreTile(xs, lambda, post, score)
				tile := make([]int, len(xs))
				for k := range tile {
					tile[k] = hi - 1 - k // reversed: every candidate in another lane
				}
				o.scorePoolTile(cands, tile, lambda, math.Inf(1), post, kept)
				for k := range xs {
					if !(bound[k] <= mid[k]) {
						t.Fatalf("%s, lambda %v, candidate %d: envelope bound %v exceeds the bound at exact means %v", set.name, lambda, lo+k, bound[k], mid[k])
					}
					if !(mid[k] <= score[k]) {
						t.Fatalf("%s, lambda %v, candidate %d: bound at exact means %v exceeds score %v", set.name, lambda, lo+k, mid[k], score[k])
					}
					if got := kept[len(xs)-1-k]; got != score[k] && !(math.IsNaN(got) && math.IsNaN(score[k])) {
						t.Fatalf("%s, lambda %v, candidate %d: scored %v in another tile, %v from a full tile", set.name, lambda, lo+k, got, score[k])
					}
				}
			}
		}
		if set.clamped {
			for j, g := range o.gps {
				_, v := g.Predict(set.train[0])
				_, vFar := g.Predict(cands[len(cands)-1])
				if v >= vFar*1e-9 {
					t.Fatalf("%s: GP %d has variance %v on a training input (%v away from the data), want it clamped", set.name, j, v, vFar)
				}
			}
		}
	}
}

// scriptedSpace is a Space whose Sample hands back scripted points: the i-th
// call returns script[i] when that is non-nil, after drawing — and
// discarding — the real sample, so the RNG moves as it would unscripted.
// SampleInto counts as a call too, and copies the scripted point into its
// destination. It also records every point Neighbor returns.
type scriptedSpace struct {
	Space
	script  [][]float64
	calls   int
	visited [][]float64
}

func (s *scriptedSpace) Sample(rng *rand.Rand) []float64 {
	x := s.Space.Sample(rng)
	if s.calls < len(s.script) && s.script[s.calls] != nil {
		x = s.script[s.calls]
	}
	s.calls++
	return x
}

func (s *scriptedSpace) SampleInto(rng *rand.Rand, x []float64) {
	s.Space.SampleInto(rng, x)
	if s.calls < len(s.script) && s.script[s.calls] != nil {
		copy(x, s.script[s.calls])
	}
	s.calls++
}

func (s *scriptedSpace) Neighbor(x []float64, rng *rand.Rand) []float64 {
	y := s.Space.Neighbor(x, rng)
	s.visited = append(s.visited, y)
	return y
}

// TestMaximizeAcquisitionMatchesExhaustive requires the bounded search to
// return what scoring everything returns — the same point from the same
// place (a pool slot, a chain, the fallback sample), at the same RNG position
// — for SearchWorkers 1, 2 and 8, on plain draws and on pools crafted around
// the search's edges.
func TestMaximizeAcquisitionMatchesExhaustive(t *testing.T) {
	base := trained(t, 21)
	real := base.space
	lambda := []float64{0.3, 0.1, 0.4, 0.2}
	side := rand.New(rand.NewSource(9))

	// clone returns base's twin on a scripted space.
	clone := func(workers int, script [][]float64) (*Optimizer, *scriptedSpace) {
		cfg := base.cfg
		cfg.SearchWorkers = workers
		o := replayed(t, base, cfg, 21, 12)
		sp := &scriptedSpace{Space: real, script: script}
		o.space = sp
		return o, sp
	}
	// A plain pool, its reference scores and the chains' walk over it:
	// what the crafted cases are cut from. script[0] is the fallback sample,
	// script[1+i] pool candidate i.
	plain := make([][]float64, 1+poolSize)
	for i := range plain {
		plain[i] = real.Sample(side)
	}
	probe, probeSpace := clone(1, plain)
	_, _, chainX, chainA := maximizeAcquisitionReference(probe, lambda, nil)
	poolScores := scorePoolReference(probe, plain[1:], lambda, nil)
	bestChain, bestPool := 0, 0
	for c := range chainA {
		if chainA[c] < chainA[bestChain] {
			bestChain = c
		}
	}
	for i := range poolScores {
		if poolScores[i] < poolScores[bestPool] {
			bestPool = i
		}
	}
	keysOf := func(points [][]float64, into map[string]bool) map[string]bool {
		for _, x := range points {
			into[real.Key(x)] = true
		}
		return into
	}
	rescript := func(edit func(script [][]float64)) [][]float64 {
		script := append([][]float64(nil), plain...)
		edit(script)
		return script
	}
	copyOf := func(x []float64) []float64 { return append([]float64(nil), x...) }

	type origin struct {
		kind string // "pool", "chain" or "fallback"
		slot int
	}
	cases := []struct {
		name    string
		script  [][]float64
		exclude map[string]bool
		want    *origin // nil: whatever the reference says
	}{
		{name: "plain draws"},
		{name: "plain pool", script: plain},
		{
			// The would-be winners are out: the walk has to skip them,
			// or a candidate that may not win sets the threshold.
			name:   "best pool candidates excluded",
			script: plain,
			exclude: func() map[string]bool {
				ex := map[string]bool{}
				for i, a := range poolScores {
					if a <= poolScores[bestPool]+0.05 {
						ex[real.Key(plain[1+i])] = true
					}
				}
				return ex
			}(),
		},
		{
			// The pool's best moved out of its slot and copied into two
			// others, with the chains silenced so the pool decides: the
			// lower index wins the tie.
			name: "identical pool candidates tie",
			script: rescript(func(script [][]float64) {
				script[1+bestPool] = plain[1+200]
				script[1+40], script[1+130] = copyOf(plain[1+bestPool]), copyOf(plain[1+bestPool])
			}),
			exclude: keysOf(probeSpace.visited, map[string]bool{}),
			want:    &origin{"pool", 40},
		},
		{
			// A copy of the chains' best point in the pool, every better
			// pool candidate excluded: equal scores, and the pool is merged
			// first.
			name: "pool candidate ties the chains' best",
			script: rescript(func(script [][]float64) {
				script[1+77] = copyOf(chainX[bestChain])
			}),
			exclude: func() map[string]bool {
				ex := map[string]bool{}
				for i, a := range poolScores {
					if a <= chainA[bestChain] {
						ex[real.Key(plain[1+i])] = true
					}
				}
				return ex
			}(),
			want: &origin{"pool", 77},
		},
		{
			name:    "all-excluded pool, chains decide",
			script:  plain,
			exclude: keysOf(plain[1:], map[string]bool{}),
			want:    &origin{"chain", bestChain},
		},
		{
			name:    "chains find nothing",
			script:  plain,
			exclude: keysOf(probeSpace.visited, map[string]bool{}),
			want:    &origin{"pool", bestPool},
		},
		{
			name:    "nothing to choose: the fallback sample",
			script:  plain,
			exclude: keysOf(probeSpace.visited, keysOf(plain[1:], map[string]bool{})),
			want:    &origin{"fallback", 0},
		},
	}
	for _, tc := range cases {
		ref, _ := clone(1, tc.script)
		want, wantA, refChainX, _ := maximizeAcquisitionReference(ref, lambda, tc.exclude)
		// originOf names the draw x is: a scripted slice itself (the
		// reference's draws), or the row of o's draw scratch a scripted
		// point was copied into (the bounded search's).
		originOf := func(o *Optimizer, x []float64) origin {
			for i, p := range tc.script {
				if p == nil {
					continue
				}
				if &p[0] == &x[0] || i < len(o.acq.draws) && &o.acq.draws[i][0] == &x[0] {
					if i == 0 {
						return origin{"fallback", 0}
					}
					return origin{"pool", i - 1}
				}
			}
			for c, p := range refChainX {
				if reflect.DeepEqual(p, x) {
					return origin{"chain", c}
				}
			}
			return origin{"unscripted", 0}
		}
		wantOrigin := originOf(ref, want)
		if tc.want != nil && wantOrigin != *tc.want {
			t.Fatalf("%s: the case is miscrafted — the exhaustive search returns %+v (value %v), the case wants %+v",
				tc.name, wantOrigin, wantA, *tc.want)
		}
		for _, workers := range []int{1, 2, 8} {
			o, _ := clone(workers, tc.script)
			got := o.maximizeAcquisition(lambda, tc.exclude)
			if !reflect.DeepEqual(got, want) || originOf(o, got) != wantOrigin {
				t.Fatalf("%s, %d workers: bounded search returned %v (%+v), exhaustive %v (%+v)",
					tc.name, workers, got, originOf(o, got), want, wantOrigin)
			}
			if o.RNGPos() != ref.RNGPos() {
				t.Fatalf("%s, %d workers: RNG at %d, exhaustive at %d", tc.name, workers, o.RNGPos(), ref.RNGPos())
			}
		}
	}
}

// TestMaximizeAcquisitionMatchesExhaustiveAcrossBatches walks whole batches —
// a growing exclusion set, the memo filling up slot after slot — on twin
// optimizers, one searching with the bound and one exhaustively, through
// several surrogate updates.
func TestMaximizeAcquisitionMatchesExhaustiveAcrossBatches(t *testing.T) {
	const nObj = 4
	cfg := DefaultConfig(nObj)
	cfg.SearchWorkers = 2
	o := New(testSpace(), cfg, 31)
	drive(o, 2, 10, nObj)
	ref := replayed(t, o, cfg, 31, 10)
	for round := 0; round < 4; round++ {
		o.acq.dropMemo()
		exclude := map[string]bool{}
		var obs []Observation
		for slot := 0; slot < 10; slot++ {
			lambda := o.randomSimplex()
			if refLambda := ref.randomSimplex(); !reflect.DeepEqual(lambda, refLambda) {
				t.Fatalf("round %d slot %d: the twins drew different weights", round, slot)
			}
			got := slices.Clone(o.maximizeAcquisition(lambda, exclude)) // kept in obs
			want, _, _, _ := maximizeAcquisitionReference(ref, lambda, exclude)
			if !reflect.DeepEqual(got, want) || o.RNGPos() != ref.RNGPos() {
				t.Fatalf("round %d slot %d: bounded search returned %v at RNG %d, exhaustive %v at %d",
					round, slot, got, o.RNGPos(), want, ref.RNGPos())
			}
			exclude[o.space.Key(got)] = true
			obs = append(obs, Observation{X: got, Y: synthObjectives(got, nObj)})
		}
		o.Update(obs)
		ref.Update(obs)
	}
}

// TestMemoKeysOnCoordinatesNotCells feeds an off-centre observation through
// Update — it becomes a training input, where the chains start — and reads it
// and its cell's centre through the memo in one batch: one lattice cell, two
// posteriors, in either order.
func TestMemoKeysOnCoordinatesNotCells(t *testing.T) {
	o := trained(t, 14)
	rng := rand.New(rand.NewSource(2))
	centre := o.space.Sample(rng)
	off := append([]float64(nil), centre...)
	off[0] += 1e-3
	if o.space.Key(off) != o.space.Key(centre) {
		t.Fatal("the off-centre point left its lattice cell; shrink the offset")
	}
	o.Update([]Observation{{X: off, Y: synthObjectives(off, 4)}})

	lambda := []float64{0.25, 0.25, 0.25, 0.25}
	post := make([]float64, 2*2*o.NumObjectives())
	for _, xs := range [][][]float64{{off, centre}, {centre, off}} {
		o.acq.dropMemo()
		var cold, warm [2]float64
		o.scoreMemoized(xs[:1], lambda, noLimit[:1], post[:len(post)/2], cold[:1])
		o.scoreMemoized(xs[1:], lambda, noLimit[:1], post[:len(post)/2], cold[1:])
		o.scoreMemoized(xs, lambda, noLimit[:2], post, warm[:])
		for k, x := range xs {
			if want := acquisitionReference(o, x, lambda); cold[k] != want || warm[k] != want {
				t.Fatalf("point %v scored %v cold and %v from the memo, reference %v", x, cold[k], warm[k], want)
			}
		}
		if warm[0] == warm[1] {
			t.Fatalf("a training input and its cell centre scored the same %v: the case tests nothing", warm[0])
		}
	}
}

// TestStepLimitStopsOnlyNoOps holds stepLimit to what a chain step does
// with its value ay: whenever ay is above the limit, neither update of
// refineChains fires — not the move (ay < ax) and not the new best
// (ay < bestA at a point not excluded). The values are the limits' own
// floats, their neighbours, ties, both infinities and NaN.
//
// It was shown to catch min(ax, bestA) for the max, and a limit that
// leaves bestA out (ax alone for every point).
func TestStepLimitStopsOnlyNoOps(t *testing.T) {
	inf := math.Inf(1)
	base := []float64{-0.5, 0, 0.25, 1, inf, math.NaN()}
	var vals []float64
	for _, v := range base {
		vals = append(vals, v, math.Nextafter(v, -inf), math.Nextafter(v, inf))
	}
	vals = append(vals, -inf)
	for _, ax := range vals {
		for _, bestA := range vals {
			for _, excluded := range []bool{false, true} {
				limit := stepLimit(ax, bestA, excluded)
				for _, ay := range vals {
					if ay > limit && (ay < ax || ay < bestA && !excluded) {
						t.Fatalf("ax %v, bestA %v, excluded %v: limit %v stops ay %v, which changes the chain", ax, bestA, excluded, limit, ay)
					}
				}
			}
		}
	}
}

// TestStoppedScoresExceedTheirLimits runs the skipping scorers against
// limits cut from the reference scores — below them all, at quartiles, at a
// reference score exactly, above them all and +Inf — and requires every
// candidate to score its reference bits or +Inf, and +Inf only when its
// reference is above its limit: scoreCandidates over a pool bounded by
// boundPoolTile at several worker counts, and scoreMemoized lane by lane
// with limits of its own, twice, so the second pass meets the skipped points
// as exact means and envelope variances in the memo. Every tenth candidate
// lies far outside the data, where the kernel underflows to 0: its exact
// variance is the prior, which is also the envelope's, so its bound equals
// its score, and the candidates there all tie at one score, which is one of
// the limits. Each scorer must skip some candidate and solve another, or the
// case tests nothing.
//
// It was shown to catch skipping on the scalarized means alone, without the
// exploration bonus (in exactScores, and in the memo's bound on a point not
// solved); skipping at >= instead of >, which prunes the far candidates'
// tie; and checking at variances of 0 instead of the envelope's (in
// scorePoolTile and in scoreMemoized).
func TestStoppedScoresExceedTheirLimits(t *testing.T) {
	live := trained(t, 15)
	lambda := []float64{0.1, 0.4, 0.3, 0.2}
	rng := rand.New(rand.NewSource(8))
	pool := make([][]float64, 120)
	ref := make([]float64, len(pool))
	for i := range pool {
		pool[i] = live.space.Sample(rng)
		if i%10 == 3 {
			pool[i][0] += 100
		}
		ref[i] = acquisitionReference(live, pool[i], lambda)
	}
	if ref[3] != ref[13] {
		t.Fatalf("far candidates scored %v and %v: the tie tests nothing", ref[3], ref[13])
	}
	sorted := append([]float64(nil), ref...)
	slices.Sort(sorted)
	limits := []float64{sorted[0] - 1, sorted[len(sorted)/4], sorted[len(sorted)/2], sorted[len(sorted)/2] + 1e-9, ref[3], sorted[len(sorted)-1] + 1, math.Inf(1)}
	check := func(what string, i int, got, limit float64) (stopped bool) {
		t.Helper()
		if got == math.Inf(1) && ref[i] != got {
			if !(ref[i] > limit) {
				t.Fatalf("%s, limit %v: candidate %d stopped with reference %v", what, limit, i, ref[i])
			}
			return true
		}
		if got != ref[i] {
			t.Fatalf("%s, limit %v: candidate %d scored %v, reference %v", what, limit, i, got, ref[i])
		}
		return false
	}
	var stopped, completed int
	for _, workers := range []int{1, 2, 8} {
		o := live
		o.cfg.SearchWorkers = workers
		for _, limit := range limits {
			o.acq = newAcqScratch(len(pool), o.NumObjectives())
			o.fanOut((len(pool)+gp.TileWidth-1)/gp.TileWidth, func(t int) { o.boundPoolTile(pool, t, lambda) })
			done := o.scoreCandidates(pool, rng.Perm(len(pool)), lambda, limit)
			n := 0
			for i := range pool {
				if check("scoreCandidates", i, o.acq.scores[i], limit) {
					stopped++
				} else {
					n++
				}
			}
			if done != n {
				t.Fatalf("limit %v: scoreCandidates counted %d solved candidates, %d have their scores", limit, done, n)
			}
			completed += n
		}
	}
	if stopped == 0 || completed == 0 {
		t.Fatalf("scoreCandidates: %d skipped and %d solved; the limits test nothing", stopped, completed)
	}

	stopped, completed = 0, 0
	o := live
	o.acq.dropMemo()
	nObj := o.NumObjectives()
	post := make([]float64, 2*gp.TileWidth*nObj)
	var out [gp.TileWidth]float64
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < len(pool); lo += acqChains {
			xs := pool[lo : lo+acqChains]
			var lim [gp.TileWidth]float64
			for k := range xs {
				lim[k] = limits[rng.Intn(len(limits))]
			}
			o.scoreMemoized(xs, lambda, lim[:len(xs)], post[:2*len(xs)*nObj], out[:len(xs)])
			for k := range xs {
				if check("scoreMemoized", lo+k, out[k], lim[k]) {
					stopped++
				} else {
					completed++
				}
			}
		}
	}
	if stopped == 0 || completed == 0 {
		t.Fatalf("scoreMemoized: %d skipped and %d solved; the limits test nothing", stopped, completed)
	}
}

// TestBrokenSurrogateTakesTheExactPath checks the search's half of what
// happens to a surrogate whose alpha holds a NaN or an Inf: gp.Envelope
// bounds its mean -Inf (the gp half, TestEnvelopeOfBrokenAlphaIsMinusInf),
// and a -Inf mean gives a candidate a bound below +Inf — not the NaN an
// exact bound from a NaN mean gives — so maximizeAcquisition orders it and
// scores it exactly instead of dropping it unseen.
func TestBrokenSurrogateTakesTheExactPath(t *testing.T) {
	o := handBuilt(make([]*gp.GP, 2), []float64{0, 0}, []float64{1.5, 1.5})
	lambda := []float64{0.5, 0.5}
	var out [1]float64
	for _, broken := range []float64{math.Inf(-1), math.NaN()} {
		o.acquisition([]float64{broken, 0.7}, []float64{0.2, 0.1}, lambda, out[:])
		if dropped := !(out[0] < math.Inf(1)); dropped != math.IsNaN(broken) {
			t.Fatalf("a mean of %v gives the bound %v", broken, out[0])
		}
	}
}
