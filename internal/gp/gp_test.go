package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"unico/internal/linalg"
)

func TestKernelsBasicProperties(t *testing.T) {
	k := func(x, y []float64) float64 { return matern52FromSq(sqDist(x, y), 0.5, 2) }
	x := []float64{0.3, 0.7}
	y := []float64{0.5, 0.1}
	if got := k(x, x); math.Abs(got-2) > 1e-12 {
		t.Errorf("k(x,x) = %v, want variance 2", got)
	}
	if k(x, y) != k(y, x) {
		t.Error("kernel not symmetric")
	}
	if k(x, y) >= k(x, x) {
		t.Error("k(x,y) >= k(x,x) for x != y")
	}
	if k(x, y) <= 0 {
		t.Error("kernel not positive")
	}
}

// fitAt is a GP at fixed Params, with the jitter linalg.CholeskyWithJitter
// settles on for its kernel matrix: what a one-off fit at those Params holds.
func fitAt(x [][]float64, y []float64, p Params) (*GP, error) {
	k := linalg.New(len(x), len(x))
	buildMaternLower(k, sqDistLower(x), p.Lengthscale, p.Variance, p.Noise)
	_, jitter, err := linalg.CholeskyWithJitter(k)
	if err != nil {
		return nil, err
	}
	return FitWithParams(x, y, p, jitter)
}

func trainingData(n int, f func(x float64) float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		xs[i] = []float64{x}
		ys[i] = f(x)
	}
	return xs, ys
}

func TestFitInterpolatesTrainingPoints(t *testing.T) {
	xs, ys := trainingData(9, func(x float64) float64 { return math.Sin(4 * x) })
	g, err := fitAt(xs, ys, Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, _ := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Errorf("Predict(%v) = %v, want ~%v", x, mu, ys[i])
		}
	}
	if g.N() != 9 {
		t.Errorf("N() = %d", g.N())
	}
}

func TestVarianceShrinksNearData(t *testing.T) {
	xs, ys := trainingData(6, func(x float64) float64 { return x * x })
	g, err := fitAt(xs, ys, Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	_, atData := g.Predict(xs[2])
	_, far := g.Predict([]float64{5.0})
	if atData >= far {
		t.Errorf("variance at training point %v >= far away %v", atData, far)
	}
}

func TestFitAutoSelectsReasonableModel(t *testing.T) {
	xs, ys := trainingData(12, func(x float64) float64 { return 3*x + 1 })
	g, err := FitAuto(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-2.5) > 0.3 {
		t.Errorf("Predict(0.5) = %v, want ~2.5", mu)
	}
	if lml := g.LogMarginalLikelihood(); math.IsNaN(lml) || math.IsInf(lml, 0) {
		t.Errorf("LML = %v", lml)
	}
}

func TestFitErrors(t *testing.T) {
	p := Params{Lengthscale: 1, Variance: 1, Noise: 1e-4}
	if _, err := FitWithParams(nil, nil, p, 0); err == nil {
		t.Error("FitWithParams accepted no data")
	}
	if _, err := FitAuto(nil, nil); err == nil {
		t.Error("FitAuto accepted no data")
	}
	if _, err := FitWithParams([][]float64{{1}}, []float64{1, 2}, p, 0); err == nil {
		t.Error("FitWithParams accepted mismatched lengths")
	}
}

func TestConstantTargetsDoNotBlowUp(t *testing.T) {
	xs, _ := trainingData(5, nil2)
	ys := []float64{7, 7, 7, 7, 7}
	g, err := FitAuto(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	mu, v := g.Predict([]float64{0.5})
	if math.Abs(mu-7) > 0.5 || math.IsNaN(v) {
		t.Errorf("Predict = %v, %v", mu, v)
	}
}

func nil2(x float64) float64 { return 0 }

// TestPredictionsFiniteProperty: any fitted GP must return finite
// predictions everywhere in the unit cube.
func TestPredictionsFiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 15)
	ys := make([]float64, 15)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64() * 10
	}
	g, err := FitAuto(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := []float64{math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)}
		mu, v := g.Predict(x)
		return !math.IsNaN(mu) && !math.IsInf(mu, 0) && v > 0 && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLMLPrefersBetterFit(t *testing.T) {
	// The marginal likelihood of a model with a sensible lengthscale must
	// exceed that of an absurd one on smooth data.
	xs, ys := trainingData(10, func(x float64) float64 { return math.Sin(3 * x) })
	good, err1 := fitAt(xs, ys, Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-4})
	bad, err2 := fitAt(xs, ys, Params{Lengthscale: 1e-4, Variance: 1, Noise: 1e-4})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Errorf("LML(good) %v <= LML(bad) %v",
			good.LogMarginalLikelihood(), bad.LogMarginalLikelihood())
	}
}

// TestLMLFromCholMatchesColumnWalk holds lmlFromChol, which reads the
// factor a row at a time, to Lᵀ·α summed down each column as the textbook
// writes it, bit for bit, on fitted factors of several sizes.
func TestLMLFromCholMatchesColumnWalk(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33, 150} {
		x, y := randomData(n, 3, int64(n))
		g, err := FitWithParams(x, y, Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, n)
		for k := range w {
			sum := 0.0
			for j := k; j < n; j++ {
				sum += g.chol.At(j, k) * g.alpha[j]
			}
			w[k] = sum
		}
		quad := 0.0
		for _, v := range w {
			quad += v * v
		}
		want := -0.5*quad - 0.5*linalg.LogDetFromChol(g.chol) - 0.5*float64(n)*math.Log(2*math.Pi)
		if got := lmlFromChol(g.chol, g.alpha, make([]float64, n)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: lmlFromChol %v, column walk %v", n, got, want)
		}
	}
}

// randomData draws a synthetic regression set.
func randomData(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = math.Sin(3*x[i][0]) + 0.3*x[i][1%d] + 0.05*rng.NormFloat64()
	}
	return x, y
}

// TestExtendMatchesRefitBitwise grows a GP one observation at a time and
// checks the incremental factor, alpha and predictions equal a full
// FitWithParams at the same hyperparameters and jitter, bit for bit —
// the invariant checkpoint resume relies on.
func TestExtendMatchesRefitBitwise(t *testing.T) {
	x, y := randomData(40, 4, 3)
	g, err := FitAuto(x[:25], y[:25])
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.Params()
	if !ok {
		t.Fatal("FitAuto GP reports no params")
	}
	for i := 25; i < 40; i++ {
		if err := g.Extend(x[i], y[i]); err != nil {
			t.Fatalf("extend %d: %v", i, err)
		}
		want, err := FitWithParams(x[:i+1], y[:i+1], p, g.Jitter())
		if err != nil {
			t.Fatalf("refit %d: %v", i, err)
		}
		for k := range want.chol.Data {
			if g.chol.Data[k] != want.chol.Data[k] {
				t.Fatalf("n=%d: chol[%d] = %v, refit %v", i+1, k, g.chol.Data[k], want.chol.Data[k])
			}
		}
		for k := range want.alpha {
			if g.alpha[k] != want.alpha[k] {
				t.Fatalf("n=%d: alpha[%d] = %v, refit %v", i+1, k, g.alpha[k], want.alpha[k])
			}
		}
		q := []float64{0.2, 0.8, 0.5, 0.1}
		gm, gv := g.Predict(q)
		wm, wv := want.Predict(q)
		if gm != wm || gv != wv {
			t.Fatalf("n=%d: predict (%v, %v), refit (%v, %v)", i+1, gm, gv, wm, wv)
		}
	}
}

// TestFitAutoMatchesExplicitGrid checks the shared-distance-matrix grid
// search selects the same model as fitting every candidate explicitly.
func TestFitAutoMatchesExplicitGrid(t *testing.T) {
	x, y := randomData(30, 3, 5)
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var bestP Params
	bestLML := math.Inf(-1)
	for _, ls := range gridLengthscales {
		for _, nz := range gridNoises {
			cand, err := fitAt(x, y, Params{Lengthscale: ls, Variance: 1, Noise: nz})
			if err != nil {
				continue
			}
			if lml := cand.LogMarginalLikelihood(); lml > bestLML {
				bestLML = lml
				bestP = Params{Lengthscale: ls, Variance: 1, Noise: nz}
			}
		}
	}
	p, _ := g.Params()
	if p != bestP {
		t.Fatalf("FitAuto chose %+v, explicit grid %+v", p, bestP)
	}
	if got := g.LogMarginalLikelihood(); math.Abs(got-bestLML) > 1e-9 {
		t.Fatalf("FitAuto LML %v, explicit grid %v", got, bestLML)
	}
}

// TestFitAutoFromNeighborhood checks warm-started refits stay within the
// ±1 lengthscale neighborhood and are deterministic.
func TestFitAutoFromNeighborhood(t *testing.T) {
	x, y := randomData(25, 3, 9)
	prev := Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}
	g, err := FitAutoFrom(x, y, &prev)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := g.Params()
	if p.Lengthscale < 0.15 || p.Lengthscale > 0.6 {
		t.Fatalf("warm refit left the neighborhood: %+v", p)
	}
	g2, err := FitAutoFrom(x, y, &prev)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := g2.Params()
	if p != p2 {
		t.Fatalf("warm refit not deterministic: %+v vs %+v", p, p2)
	}
	// Off-grid previous optimum falls back to the full grid.
	off := Params{Lengthscale: 0.123, Variance: 1, Noise: 1e-2}
	gFull, err := FitAutoFrom(x, y, &off)
	if err != nil {
		t.Fatal(err)
	}
	gAuto, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := gFull.Params()
	pa, _ := gAuto.Params()
	if pf != pa {
		t.Fatalf("off-grid warm start %+v, full grid %+v", pf, pa)
	}
}

// TestPredictDoesNotAllocate pins the allocation-free Predict hot path.
func TestPredictDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	x, y := randomData(50, 4, 2)
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.4, 0.5, 0.6}
	g.Predict(q) // warm the pool
	if n := testing.AllocsPerRun(200, func() { g.Predict(q) }); n > 0 {
		t.Fatalf("Predict allocates %.1f objects per call", n)
	}
}

// TestConcurrentPredictIsDeterministic hammers one GP from several
// goroutines and checks every prediction matches the serial value.
func TestConcurrentPredictIsDeterministic(t *testing.T) {
	x, y := randomData(60, 4, 8)
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 64)
	wantM := make([]float64, len(queries))
	wantV := make([]float64, len(queries))
	rng := rand.New(rand.NewSource(4))
	for i := range queries {
		queries[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		wantM[i], wantV[i] = g.Predict(queries[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				m, v := g.Predict(q)
				if m != wantM[i] || v != wantV[i] {
					panic("concurrent Predict diverged")
				}
			}
		}()
	}
	wg.Wait()
}
