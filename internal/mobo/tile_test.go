package mobo

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"unico/internal/gp"
	"unico/internal/hw"
)

// noLimit is a tile's worth of limits no score exceeds: no solve is skipped.
var noLimit = [gp.TileWidth]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}

// acquisitionReference is the acquisition as it was computed before scoring
// moved to tiles: one candidate, one objective's surrogate at a time, the
// normalized moments collected in fresh slices. The tile tests compare
// against it with ==.
func acquisitionReference(o *Optimizer, x, lambda []float64) float64 {
	n := o.NumObjectives()
	mu, sigma := make([]float64, n), make([]float64, n)
	for j, surrogate := range o.gps {
		m, v := surrogate.Predict(x)
		mu[j] = o.normalize(j, m)
		span := o.hi[j] - o.lo[j]
		if span <= 0 {
			span = 1
		}
		sigma[j] = math.Sqrt(v) / span
	}
	s := scalarize(mu, lambda, rho)
	var varSum float64
	for j := range sigma {
		v := lambda[j] * sigma[j]
		varSum += v * v
	}
	return s - explore*math.Sqrt(varSum)
}

// trained returns a four-objective optimizer whose surrogates went through
// full fits and incremental extends (and so hold a mix of shared and
// distinct hyperparameters).
func trained(t *testing.T, seed int64) *Optimizer {
	t.Helper()
	o := New(hw.NewSpatialSpace(hw.Edge), DefaultConfig(4), seed)
	drive(o, 4, 12, 4)
	if o.gps == nil {
		t.Fatal("optimizer holds no surrogates after four updates")
	}
	return o
}

// TestScorePoolMatchesPerCandidate checks both ways a pool candidate gets an
// exact score against the per-candidate reference (a full gp.PredictTile of
// that candidate alone, through Predict): scoreCandidates, the search's own
// path — every candidate scored in regrouped tiles in a shuffled order, each
// tile's means and kernel columns computed in the tile and its solves run on
// them — and scorePoolReference, the exhaustive scoring the search tests lean
// on. Before it, the bound pass (boundPoolTile) must give every candidate,
// excluded or not, a bound no higher than its reference. Pool sizes
// sit on every side of the tile and pool boundaries, at several worker
// counts, on a live optimizer and on one rebuilt by replay; excluded
// candidates read +Inf from the exhaustive scoring.
func TestScorePoolMatchesPerCandidate(t *testing.T) {
	live := trained(t, 11)
	lambda := []float64{0.4, 0.3, 0.2, 0.1}
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 3, 129, 131, 255, 256, 257} {
		pool := make([][]float64, size)
		for i := range pool {
			pool[i] = live.space.Sample(rng)
		}
		exclude := map[string]bool{live.space.Key(pool[size/2]): true}
		pool[0] = live.train[0].X // already evaluated: excluded through o.seen
		for _, workers := range []int{1, 2, 8} {
			cfg := live.cfg
			cfg.SearchWorkers = workers
			for name, o := range map[string]*Optimizer{"live": live, "replayed": replayed(t, live, cfg, 11, 12)} {
				o.cfg.SearchWorkers = workers
				o.acq = newAcqScratch(size, o.NumObjectives())
				o.fanOut((size+gp.TileWidth-1)/gp.TileWidth, func(t int) { o.boundPoolTile(pool, t, lambda) })
				for i, x := range pool {
					if b, ref := o.acq.bounds[i], acquisitionReference(o, x, lambda); !(b <= ref) {
						t.Fatalf("%s, pool of %d: candidate %d bounded %v above its score %v", name, size, i, b, ref)
					}
				}
				o.scoreCandidates(pool, rng.Perm(size), lambda, math.Inf(1))
				exhaustive := scorePoolReference(o, pool, lambda, exclude)
				for i, x := range pool {
					want := acquisitionReference(o, x, lambda)
					if got := o.acq.scores[i]; got != want {
						t.Fatalf("%s, pool of %d, %d workers: candidate %d scored %v, reference %v",
							name, size, workers, i, got, want)
					}
					if o.excluded(x, exclude) {
						want = math.Inf(1)
					}
					if exhaustive[i] != want {
						t.Fatalf("%s, pool of %d: exhaustive scoring gave candidate %d %v, reference %v",
							name, size, i, exhaustive[i], want)
					}
				}
				if !math.IsInf(exhaustive[0], 1) || !math.IsInf(exhaustive[size/2], 1) {
					t.Fatalf("%s, pool of %d: excluded candidates scored %v and %v, want +Inf",
						name, size, exhaustive[0], exhaustive[size/2])
				}
			}
		}
	}
}

// checkChainsMatchSerialWalks compares refineChains with the walks it
// replaced: each chain run start to finish on its own, one candidate scored
// at a time, nothing remembered.
func checkChainsMatchSerialWalks(t *testing.T, o *Optimizer, lambda []float64) {
	t.Helper()
	incumbents := o.topTrain(acqChains, lambda)
	seeds := []int64{101, 202, 303}
	// Exclude one point a chain is known to visit, so the "best visited"
	// and "current" positions of that chain part ways.
	probe := rand.New(rand.NewSource(seeds[1]))
	exclude := map[string]bool{o.space.Key(o.space.Neighbor(incumbents[1], probe)): true}

	gotX, gotA := o.refineChains(incumbents, seeds, lambda, exclude)
	for c := range incumbents {
		crng := rand.New(rand.NewSource(seeds[c]))
		x := incumbents[c]
		ax := acquisitionReference(o, x, lambda)
		var wantX []float64
		wantA := math.Inf(1)
		for step := 0; step < acqSteps; step++ {
			y := o.space.Neighbor(x, crng)
			ay := acquisitionReference(o, y, lambda)
			if ay < wantA && !o.excluded(y, exclude) {
				wantX, wantA = y, ay
			}
			if ay < ax {
				x, ax = y, ay
			}
		}
		if gotA[c] != wantA || !reflect.DeepEqual(gotX[c], wantX) {
			t.Fatalf("chain %d: lock-step best %v at %v, serial walk %v at %v", c, gotA[c], gotX[c], wantA, wantX)
		}
	}
}

// TestRefineChainsMatchSerialWalks checks the lock-step, memoized refinement
// against serial walks: on a cold memo, again on the memo the first call
// filled (under another lambda: a posterior does not depend on it), and
// after an Update, when everything the memo held is a posterior of
// surrogates that no longer exist. Calling refineChains directly matters —
// SuggestBatch starts by dropping the memo and would hide an Update that
// does not.
func TestRefineChainsMatchSerialWalks(t *testing.T) {
	o := trained(t, 12)
	checkChainsMatchSerialWalks(t, o, []float64{0.1, 0.2, 0.3, 0.4})
	if len(o.acq.memo) == 0 {
		t.Fatal("refineChains left the memo empty")
	}
	held := len(o.acq.memoPost)
	checkChainsMatchSerialWalks(t, o, []float64{0.1, 0.2, 0.3, 0.4})
	if len(o.acq.memoPost) != held {
		t.Fatalf("the same walks again predicted %d more values instead of reading the memo", len(o.acq.memoPost)-held)
	}
	checkChainsMatchSerialWalks(t, o, []float64{0.4, 0.3, 0.2, 0.1})

	rng := rand.New(rand.NewSource(5))
	obs := make([]Observation, 4)
	for i := range obs {
		x := o.space.Sample(rng)
		obs[i] = Observation{X: x, Y: synthObjectives(x, 4)}
	}
	o.Update(obs)
	checkChainsMatchSerialWalks(t, o, []float64{0.1, 0.2, 0.3, 0.4})
}

// TestScoreTileDoesNotAllocate pins the allocation-free scoring paths: with
// the posterior scratch handed in, a tile costs no objects — bounded from
// its envelope, scored exactly, or read back from the memo, with every
// candidate solved or some skipped.
func TestScoreTileDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	o := trained(t, 13)
	lambda := []float64{0.25, 0.25, 0.25, 0.25}
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([][]float64, gp.TileWidth), make([][]float64, gp.TileWidth)
	idx := make([]int, len(xs))
	for i := range xs {
		xs[i], ys[i] = o.space.Sample(rng), o.space.Sample(rng)
		idx[i] = len(xs) - 1 - i
	}
	nObj := o.NumObjectives()
	post := make([]float64, 2*len(xs)*nObj)
	out := make([]float64, len(xs))
	o.boundPoolTile(xs, 0, lambda)
	// A limit some of the candidates score above: their solves are skipped.
	o.scorePoolTile(xs, idx, lambda, math.Inf(1), post, out)
	slices.Sort(out)
	mid := out[len(out)/2]
	var midLimit [gp.TileWidth]float64
	for k := range midLimit {
		midLimit[k] = mid
	}
	if solved := o.scorePoolTile(xs, idx, lambda, mid, post, out); solved == len(xs) {
		t.Fatal("every candidate was solved under the middle limit: the skipping cases test nothing")
	}
	for name, score := range map[string]func(m int){
		"boundTile": func(m int) {
			o.boundTile(xs[:m], lambda, post[:m*nObj], post[m*nObj:2*m*nObj], out[:m])
		},
		"scorePoolTile": func(m int) { o.scorePoolTile(xs, idx[len(xs)-m:], lambda, math.Inf(1), post[:2*m*nObj], out[:m]) },
		"scoreMemoized": func(m int) { o.scoreMemoized(xs[:m], lambda, noLimit[:m], post[:2*m*nObj], out[:m]) },
		"scorePoolTile, skipping": func(m int) {
			o.scorePoolTile(xs, idx[len(xs)-m:], lambda, mid, post[:2*m*nObj], out[:m])
		},
		// Points of their own: once the warm-up call has skipped some, the
		// memo holds their exact means and envelope variances, and every
		// later call bounds them from those or predicts them again.
		"scoreMemoized, skipping": func(m int) {
			o.scoreMemoized(ys[:m], lambda, midLimit[:m], post[:2*m*nObj], out[:m])
		},
	} {
		for _, m := range []int{gp.TileWidth, acqChains} {
			run := func() { score(m) }
			run() // warm the pool, fill the memo
			if n := testing.AllocsPerRun(100, run); n > 0 {
				t.Fatalf("%s of %d candidates allocates %.1f objects per call", name, m, n)
			}
		}
	}
	if !slices.Contains(o.acq.memoFull, false) {
		t.Fatal("no memoized solve was skipped: the skipping cases test nothing")
	}
}

// evictStaleReference is evictStale as it stood before the scalars were
// hoisted out of the sort: ScalarizeParEGO evaluated twice per comparison.
func evictStaleReference(o *Optimizer) []Observation {
	max := o.cfg.MaxTrain
	elite := max / 4
	idx := make([]int, len(o.train))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return o.ScalarizeParEGO(o.train[idx[a]].Y) < o.ScalarizeParEGO(o.train[idx[b]].Y)
	})
	keep := map[int]bool{}
	for _, i := range idx[:elite] {
		keep[i] = true
	}
	for i := len(o.train) - 1; i >= 0 && len(keep) < max; i-- {
		keep[i] = true
	}
	var next []Observation
	for i, ob := range o.train {
		if keep[i] {
			next = append(next, ob)
		}
	}
	return next
}

// TestEvictStaleKeepsTheSamePoints runs the eviction on a seeded 200-point
// training set with repeated objective vectors (ties in the sort) and
// requires the survivors, in order, that the per-comparison scalarization
// chose.
func TestEvictStaleKeepsTheSamePoints(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 1)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		x := o.space.Sample(rng)
		y := synthObjectives(x, 3)
		if i%7 == 3 {
			y = append([]float64(nil), o.all[i-2].Y...)
		}
		o.all = append(o.all, Observation{X: x, Y: y})
	}
	o.train = append([]Observation(nil), o.all...)
	o.refreshBounds()

	want := evictStaleReference(o)
	if !o.evictStale() {
		t.Fatal("evictStale reported no change on a 200-point set")
	}
	if len(o.train) != o.cfg.MaxTrain {
		t.Fatalf("kept %d points, want %d", len(o.train), o.cfg.MaxTrain)
	}
	if !reflect.DeepEqual(o.train, want) {
		t.Fatal("evictStale kept different points than the per-comparison scalarization")
	}
	if o.evictStale() {
		t.Fatal("evictStale changed a set already at MaxTrain")
	}
}
