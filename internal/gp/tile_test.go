package gp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"unico/internal/linalg"
)

// predictReference is Predict as it stood before prediction moved to tiles:
// one kernel column, one dot product and one forward solve per (GP, point),
// nothing shared. The tile tests compare against it with ==.
func predictReference(g *GP, x []float64) (mean, variance float64) {
	n := len(g.x)
	ks, v := make([]float64, n), make([]float64, n)
	kernel := func(a, b []float64) float64 {
		return matern52FromSq(sqDist(a, b), g.params.Lengthscale, g.params.Variance)
	}
	for i := range g.x {
		ks[i] = kernel(g.x[i], x)
	}
	mu := dot(ks, g.alpha)
	linalg.SolveLowerInto(g.chol, ks, v)
	varS := kernel(x, x) + g.params.Noise - dot(v, v)
	if varS < 1e-12 {
		varS = 1e-12
	}
	return mu*g.stdY + g.meanY, varS * g.stdY * g.stdY
}

// dot is the textbook inner product, summed in ascending index.
func dot(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// tilePoints draws TileWidth query points, the first of them a training
// point (distance zero to one row).
func tilePoints(x [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, TileWidth)
	xs[0] = x[len(x)/2]
	for k := 1; k < len(xs); k++ {
		q := make([]float64, len(x[0]))
		for i := range q {
			q[i] = rng.Float64()
		}
		xs[k] = q
	}
	return xs
}

// checkTile compares PredictTile with predictReference for every tile fill
// from one point to TileWidth, and requires every variance to be at most
// Envelope's.
func checkTile(t *testing.T, gps []*GP, xs [][]float64) {
	t.Helper()
	ng := len(gps)
	for m := 1; m <= len(xs); m++ {
		mean := make([]float64, m*ng)
		variance := make([]float64, m*ng)
		PredictTile(gps, xs[:m], mean, variance, nil)
		envMean, envVar := make([]float64, m*ng), make([]float64, m*ng)
		Envelope(gps, xs[:m], envMean, envVar)
		for k := 0; k < m; k++ {
			for j, g := range gps {
				wm, wv := predictReference(g, xs[k])
				if gm, gv := mean[k*ng+j], variance[k*ng+j]; gm != wm || gv != wv {
					t.Fatalf("tile of %d, point %d, GP %d: (%v, %v), reference (%v, %v)", m, k, j, gm, gv, wm, wv)
				}
				if top := envVar[k*ng+j]; !(wv <= top) {
					t.Fatalf("point %d, GP %d: variance %v above the envelope's %v", k, j, wv, top)
				}
			}
		}
	}
}

// fitShared fits one GP per (Params, jitter) pair on the same input rows
// with different targets, the way the optimizer's objectives do.
func fitShared(t *testing.T, x [][]float64, y []float64, ps []Params, jitters []float64) []*GP {
	t.Helper()
	gps := make([]*GP, len(ps))
	for j, p := range ps {
		yj := make([]float64, len(y))
		for i, v := range y {
			yj[i] = v*float64(j+1) + float64(j)*x[i][0]
		}
		g, err := FitWithParams(append([][]float64(nil), x...), yj, p, jitters[j])
		if err != nil {
			t.Fatal(err)
		}
		gps[j] = g
	}
	return gps
}

func leadersOf(gps []*GP) [3][]int {
	dist, col, fac := new(tileScratch).leaders(gps)
	return [3][]int{dist, col, fac}
}

// TestPredictTileMatchesPredict covers the sharing patterns the optimizer's
// GP sets show — every objective on one factor, some, none — at training
// sizes on both sides of the factorization's panel width, and checks both
// the results (==) and that the sharing the tile is for actually happens.
func TestPredictTileMatchesPredict(t *testing.T) {
	a := Params{Lengthscale: 0.6, Variance: 1, Noise: 0.05}
	b := Params{Lengthscale: 0.15, Variance: 1, Noise: 1e-4}
	c := Params{Lengthscale: 0.3, Variance: 1, Noise: 0.05}
	aQuiet := Params{Lengthscale: 0.6, Variance: 1, Noise: 1e-4}
	cases := []struct {
		name    string
		ps      []Params
		jitters []float64
		lead    [3][]int
	}{
		{"all-equal", []Params{a, a, a, a}, []float64{0, 0, 0, 0},
			[3][]int{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
		{"partly-equal", []Params{a, b, c, a}, []float64{0, 0, 0, 0},
			[3][]int{{0, 0, 0, 0}, {0, 1, 2, 0}, {0, 1, 2, 0}}},
		{"same-column-other-noise-or-jitter", []Params{a, aQuiet, a, aQuiet}, []float64{0, 0, 1e-8, 0},
			[3][]int{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 1, 2, 1}}},
		{"all-distinct", []Params{a, b, c, aQuiet}, []float64{0, 0, 0, 0},
			[3][]int{{0, 0, 0, 0}, {0, 1, 2, 0}, {0, 1, 2, 3}}},
		{"single", []Params{b}, []float64{1e-10}, [3][]int{{0}, {0}, {0}}},
	}
	for _, n := range []int{5, 70, 150} {
		x, y := randomData(n+3, 6, int64(n))
		xs := tilePoints(x[:n], 11)
		for _, tc := range cases {
			gps := fitShared(t, x[:n], y[:n], tc.ps, tc.jitters)
			if got := leadersOf(gps); !reflect.DeepEqual(got, tc.lead) {
				t.Fatalf("n=%d %s: leaders %v, want %v", n, tc.name, got, tc.lead)
			}
			checkTile(t, gps, xs)

			// Grown by Extend on shared rows, the set still shares and
			// still matches.
			for i := n; i < n+3; i++ {
				for j, g := range gps {
					if err := g.Extend(x[i], y[i]*float64(j+1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := leadersOf(gps); !reflect.DeepEqual(got, tc.lead) {
				t.Fatalf("n=%d %s after Extend: leaders %v, want %v", n, tc.name, got, tc.lead)
			}
			checkTile(t, gps, xs)
		}
	}
}

// TestPredictTileRefusesToShareAcrossInputs is the guard: GPs share
// distances only when their training inputs are the same rows. Sets of
// different length, of equal length but other points, and even equal-valued
// copies are evaluated on their own distances and still match Predict.
func TestPredictTileRefusesToShareAcrossInputs(t *testing.T) {
	x, y := randomData(40, 4, 21)
	p := Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}
	fit := func(x [][]float64, y []float64) *GP {
		g, err := FitWithParams(x, y, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	other, _ := randomData(40, 4, 22)
	copied := make([][]float64, len(x))
	for i := range x {
		copied[i] = append([]float64(nil), x[i]...)
	}
	gps := []*GP{fit(x, y), fit(x[:30], y[:30]), fit(other, y), fit(copied, y), fit(x, y)}
	want := [3][]int{{0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}}
	if got := leadersOf(gps); !reflect.DeepEqual(got, want) {
		t.Fatalf("leaders %v, want %v", got, want)
	}
	checkTile(t, gps, tilePoints(x, 5))
}

func TestPredictTilePanicsOnBadShapes(t *testing.T) {
	x, y := randomData(10, 2, 1)
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	gps := []*GP{g}
	for name, fn := range map[string]func(){
		"no points": func() { PredictTile(gps, nil, nil, nil, nil) },
		"too many points": func() {
			PredictTile(gps, make([][]float64, TileWidth+1), make([]float64, TileWidth+1), make([]float64, TileWidth+1), nil)
		},
		"short output":    func() { PredictTile(gps, x[:2], make([]float64, 1), make([]float64, 2), nil) },
		"short variances": func() { PredictTile(gps, x[:2], make([]float64, 2), make([]float64, 1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPredictTileDoesNotAllocate pins the allocation-free tile, full and
// partly filled, solving every point and with a predicate that reads the
// tile's means and skips some points.
func TestPredictTileDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	x, y := randomData(50, 4, 2)
	a := Params{Lengthscale: 0.6, Variance: 1, Noise: 0.05}
	b := Params{Lengthscale: 0.15, Variance: 1, Noise: 1e-4}
	gps := fitShared(t, x, y, []Params{a, b, a, b}, []float64{0, 0, 0, 1e-8})
	xs := tilePoints(x, 3)
	ng := len(gps)
	mean := make([]float64, len(xs)*ng)
	variance := make([]float64, len(xs)*ng)
	for _, m := range []int{TileWidth, 3} {
		for name, run := range map[string]func(){
			"PredictTile": func() { PredictTile(gps, xs[:m], mean[:m*ng], variance[:m*ng], nil) },
			"PredictTile, skipping": func() {
				PredictTile(gps, xs[:m], mean[:m*ng], variance[:m*ng], func(k int) bool { return mean[k*ng] < mean[k*ng+1] })
			},
		} {
			run() // warm the pool
			if n := testing.AllocsPerRun(200, run); n > 0 {
				t.Fatalf("%s of %d points allocates %.1f objects per call", name, m, n)
			}
		}
	}
}

// TestConcurrentPredictTileIsDeterministic hammers one GP set from several
// goroutines with tiles of different fills (so pooled scratch changes width
// between uses) and checks every result matches the serial value.
func TestConcurrentPredictTileIsDeterministic(t *testing.T) {
	x, y := randomData(60, 4, 8)
	a := Params{Lengthscale: 0.6, Variance: 1, Noise: 0.05}
	b := Params{Lengthscale: 0.15, Variance: 1, Noise: 1e-4}
	gps := fitShared(t, x, y, []Params{a, b, a}, []float64{0, 0, 0})
	xs := tilePoints(x, 4)
	ng := len(gps)
	want := make([][2][]float64, TileWidth+1)
	for m := 1; m <= TileWidth; m++ {
		want[m] = [2][]float64{make([]float64, m*ng), make([]float64, m*ng)}
		PredictTile(gps, xs[:m], want[m][0], want[m][1], nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mean, variance := make([]float64, TileWidth*ng), make([]float64, TileWidth*ng)
			for r := 0; r < 50; r++ {
				m := 1 + (w+r)%TileWidth
				PredictTile(gps, xs[:m], mean[:m*ng], variance[:m*ng], nil)
				if !reflect.DeepEqual(mean[:m*ng], want[m][0]) || !reflect.DeepEqual(variance[:m*ng], want[m][1]) {
					t.Errorf("concurrent PredictTile of %d points diverged", m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPriorVarianceIsSignalVariance holds k(x, x), evaluated through the
// kernel, to the signal variance with ==, and a GP's prior variance, read
// from its Params, to k(x, x) + σ_n², at seeded points and at a training
// point, for every grid lengthscale, every grid noise and signal variances
// other than 1 — and Envelope's variance far from the data, where it knows
// nothing better, to the prior variance computed from the kernel.
// Extend's diagonal and the kernel matrices' diagonals rely on the first.
func TestPriorVarianceIsSignalVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([][]float64, 12)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = rng.NormFloat64()
	}
	seed := int64(0)
	for _, ls := range gridLengthscales {
		for _, nz := range gridNoises {
			for _, v := range []float64{1, 0.37, 2.5, 1e-3} {
				seed++
				g, err := FitWithParams(x, y, Params{Lengthscale: ls, Variance: v, Noise: nz}, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range tilePoints(x, seed) {
					k := matern52FromSq(sqDist(q, q), ls, v)
					if k != v {
						t.Fatalf("ls %v, variance %v: k(x, x) = %v", ls, v, k)
					}
					if got := g.priorVariance(); got != k+nz {
						t.Fatalf("ls %v, noise %v, variance %v: prior variance %v, kernel %v", ls, nz, v, got, k+nz)
					}
					far := [][]float64{{q[0] + 100, q[1], q[2]}}
					var mean, top [1]float64
					Envelope([]*GP{g}, far, mean[:], top[:])
					if want := g.scaledVariance(k + nz); top[0] != want {
						t.Fatalf("ls %v, noise %v, variance %v: envelope variance %v far away, from the kernel %v", ls, nz, v, top[0], want)
					}
				}
			}
		}
	}
}

// checkSkips runs PredictTile with seeded predicates — skipping every
// point, none, and at random — on the points of xs shuffled into tiles of
// every fill, with the variance slots preset to values of the caller's. The
// predicate must be asked once per point, in order, after every mean of the
// tile is predictReference's; a skipped point must keep the caller's
// variance bits; a solved one must have predictReference's, although the
// predicate overwrote its means.
func checkSkips(t *testing.T, name string, gps []*GP, xs [][]float64, seed int64) {
	t.Helper()
	ng := len(gps)
	wantM, wantV := make([][]float64, len(xs)), make([][]float64, len(xs))
	for k, x := range xs {
		wantM[k], wantV[k] = make([]float64, ng), make([]float64, ng)
		for j, g := range gps {
			wantM[k][j], wantV[k][j] = predictReference(g, x)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for m := 1; m <= len(xs); m++ {
		for _, p := range []float64{1, 0, 0.3, 0.7} {
			perm := rng.Perm(len(xs))[:m]
			tx := make([][]float64, m)
			for k, i := range perm {
				tx[k] = xs[i]
			}
			mean, variance, preset := make([]float64, m*ng), make([]float64, m*ng), make([]float64, m*ng)
			for i := range preset {
				preset[i] = rng.NormFloat64()
			}
			copy(variance, preset)
			asked := 0
			skip := make([]bool, m)
			PredictTile(gps, tx, mean, variance, func(k int) bool {
				if k != asked {
					t.Fatalf("%s, tile of %d: asked about point %d after %d points", name, m, k, asked)
				}
				asked++
				for q, i := range perm {
					if q >= k && !reflect.DeepEqual(mean[q*ng:(q+1)*ng], wantM[i]) {
						t.Fatalf("%s, tile of %d: asked about point %d with point %d's means %v, reference %v", name, m, k, q, mean[q*ng:(q+1)*ng], wantM[i])
					}
				}
				for j := range gps {
					mean[k*ng+j] = -1
				}
				skip[k] = rng.Float64() < p
				return !skip[k]
			})
			if asked != m {
				t.Fatalf("%s, tile of %d: asked about %d points", name, m, asked)
			}
			for k, i := range perm {
				got := variance[k*ng : (k+1)*ng]
				switch {
				case skip[k] && !reflect.DeepEqual(got, preset[k*ng:(k+1)*ng]):
					t.Fatalf("%s, tile of %d: skipped point %d has variances %v, the caller's %v", name, m, i, got, preset[k*ng:(k+1)*ng])
				case !skip[k] && !reflect.DeepEqual(got, wantV[i]):
					t.Fatalf("%s, tile of %d: solved point %d has variances %v, reference %v", name, m, i, got, wantV[i])
				case p == 1 && !skip[k], p == 0 && skip[k]:
					t.Fatalf("%s: skipping with probability %v left point %d skipped %v", name, p, i, skip[k])
				}
			}
		}
	}
}

// TestPredictTileSkipsExactly holds PredictTile's predicate (checkSkips) to
// the reference on the sharing patterns of the tile tests: one factor for
// every GP, some shared, none, at training sizes on both sides of a multiple
// of the forward solve's four rows and of 16; and GPs on input sets of
// different lengths, whose solves have different lengths.
func TestPredictTileSkipsExactly(t *testing.T) {
	a := Params{Lengthscale: 0.6, Variance: 1, Noise: 0.05}
	b := Params{Lengthscale: 0.15, Variance: 1, Noise: 1e-4}
	c := Params{Lengthscale: 0.3, Variance: 1.7, Noise: 1e-2}
	for _, n := range []int{5, 16, 17, 150} {
		x, y := randomData(n, 6, int64(n))
		xs := tilePoints(x, int64(n)+1)
		checkSkips(t, "shared", fitShared(t, x, y, []Params{a, a, a, a}, []float64{0, 0, 0, 0}), xs, 1)
		checkSkips(t, "partly shared", fitShared(t, x, y, []Params{a, b, c, a}, []float64{0, 0, 0, 1e-8}), xs, 2)
	}
	x, y := randomData(40, 4, 7)
	gps := fitShared(t, x, y, []Params{a, b}, []float64{0, 0})
	short, err := FitWithParams(x[:23], y[:23], c, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := FitWithParams(x[:31], y[:31], Params{Lengthscale: 0.4, Variance: 2.5, Noise: 1e-3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkSkips(t, "mixed", []*GP{gps[0], short, mid, gps[1]}, tilePoints(x, 9), 3)
}
