package gp

import (
	"math"
	"math/rand"
	"testing"
)

// envelopeGPs builds GPs on n random training rows of dimension dim, one per
// grid lengthscale at signal variance sv, with alphas drawn directly: signed,
// some exactly zero, spread over orders of magnitude. No factor is needed —
// the means read only the rows, the Params and alpha — so the alphas can be
// anything a fit could leave, not only what one leaves on these rows.
func envelopeGPs(rng *rand.Rand, n, dim int, sv float64) []*GP {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
	}
	gps := make([]*GP, len(gridLengthscales))
	for l, ls := range gridLengthscales {
		g := &GP{
			factor: &factor{params: Params{Lengthscale: ls, Variance: sv, Noise: 1e-4}, x: x},
			alpha:  make([]float64, n),
			meanY:  rng.NormFloat64(),
			stdY:   math.Exp(rng.NormFloat64()),
		}
		for i := range g.alpha {
			if rng.Intn(5) > 0 {
				g.alpha[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		g.splitAlpha()
		gps[l] = g
	}
	return gps
}

// envelopeQueries returns query points for training rows x: a training row
// itself (d² = 0 to it), rows nudged off centre by a few units in the last
// place and by 1e-3, uniform points, and points far outside the unit cube,
// where s runs past the table for every lengthscale.
func envelopeQueries(rng *rand.Rand, x [][]float64) [][]float64 {
	dim := len(x[0])
	row := x[rng.Intn(len(x))]
	qs := [][]float64{append([]float64(nil), row...)}
	for _, eps := range []float64{1e-15, 1e-3} {
		q := append([]float64(nil), row...)
		for d := range q {
			q[d] += eps * rng.NormFloat64()
		}
		qs = append(qs, q)
	}
	for k := 0; k < 4; k++ {
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64()
		}
		qs = append(qs, q)
	}
	far := make([]float64, dim)
	for d := range far {
		far[d] = 3 + rng.Float64()
	}
	return append(qs, far)
}

// checkEnvelope requires EnvelopeMeans <= PredictMeans for every (GP, point),
// on the floats, with no tolerance.
func checkEnvelope(t *testing.T, gps []*GP, xs [][]float64) {
	t.Helper()
	env, exact := make([]float64, len(xs)*len(gps)), make([]float64, len(xs)*len(gps))
	EnvelopeMeans(gps, xs, env)
	PredictMeans(gps, xs, exact, nil)
	for i := range env {
		if !(env[i] <= exact[i]) {
			g := gps[i%len(gps)]
			t.Fatalf("point %d, lengthscale %v, variance %v, n %d: envelope %v exceeds the mean %v",
				i/len(gps), g.params.Lengthscale, g.params.Variance, len(g.x), env[i], exact[i])
		}
	}
}

// FuzzEnvelopeBound checks the property the acquisition search prunes on:
// the envelope mean is <= the bits PredictMeans writes, over every grid
// lengthscale, signal variances from 1e-3 to 1e3, signed and zero alphas,
// queries on a training row, just off it and beyond the table, in
// dimensions 6 and 16.
//
// It was shown to catch dropping the slack (the exact bound is tight on a
// training row), swapping the kernel bounds of positive and negative alphas,
// and holding s past the table at the wrong step.
func FuzzEnvelopeBound(f *testing.F) {
	f.Add(int64(1), uint8(20), false, 0.0)
	f.Add(int64(2), uint8(150), true, 0.0)
	f.Add(int64(3), uint8(1), false, 3.0)
	f.Add(int64(4), uint8(64), true, -3.0)
	f.Add(int64(-28), uint8(1), true, 3.0) // a lone point just off the query: the bound is tight
	f.Fuzz(func(t *testing.T, seed int64, n uint8, wide bool, logVar float64) {
		if n == 0 || !(math.Abs(logVar) <= 3) {
			t.Skip()
		}
		dim := 6
		if wide {
			dim = 16
		}
		rng := rand.New(rand.NewSource(seed))
		gps := envelopeGPs(rng, int(n), dim, math.Pow(10, logVar))
		xs := envelopeQueries(rng, gps[0].x)
		for lo := 0; lo < len(xs); lo += TileWidth {
			checkEnvelope(t, gps, xs[lo:min(lo+TileWidth, len(xs))])
		}
	})
}

// TestEnvelopeOnFittedGPs checks the bound on GPs a grid fit leaves, whose
// alphas are far larger than their targets at the small noise levels, and on
// extends of them, where splitAlpha runs from refreshTargets.
func TestEnvelopeOnFittedGPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{6, 16} {
		x, y := randomData(60, dim, int64(dim))
		g, err := FitAuto(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			xs := envelopeQueries(rng, g.x)
			checkEnvelope(t, []*GP{g}, xs[:TileWidth])
			extra, _ := randomData(1, dim, int64(100+step))
			if err := g.Extend(extra[0], rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEnvelopeOfBrokenAlphaIsMinusInf checks that a GP whose alpha holds a
// NaN or an Inf, or whose signal variance is not positive, bounds -Inf:
// a caller pruning on the bound computes its means instead of dropping it,
// as it would a NaN.
func TestEnvelopeOfBrokenAlphaIsMinusInf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, brk := range map[string]func(g *GP){
		"NaN alpha":     func(g *GP) { g.alpha[2] = math.NaN() },
		"+Inf alpha":    func(g *GP) { g.alpha[0] = math.Inf(1) },
		"-Inf alpha":    func(g *GP) { g.alpha[4] = math.Inf(-1) },
		"zero variance": func(g *GP) { g.params.Variance = 0 },
	} {
		gps := envelopeGPs(rng, 8, 6, 1)
		g := gps[2]
		g.factor = &factor{params: g.params, x: g.x} // its own Params
		brk(g)
		g.splitAlpha()
		xs := envelopeQueries(rng, g.x)[:TileWidth]
		env := make([]float64, len(xs)*len(gps))
		EnvelopeMeans(gps, xs, env)
		for k := range xs {
			if got := env[k*len(gps)+2]; !math.IsInf(got, -1) {
				t.Fatalf("%s: envelope %v, want -Inf", name, got)
			}
			if got := env[k*len(gps)+1]; math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("%s: an intact GP of the same tile bounds %v", name, got)
			}
		}
	}
}

// TestEnvelopeDoesNotAllocate pins the envelope's hot path to pooled scratch.
func TestEnvelopeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	gps := envelopeGPs(rng, 40, 6, 1)
	xs := envelopeQueries(rng, gps[0].x)[:TileWidth]
	env := make([]float64, len(xs)*len(gps))
	run := func() { EnvelopeMeans(gps, xs, env) }
	run()
	if n := testing.AllocsPerRun(100, run); n > 0 {
		t.Fatalf("EnvelopeMeans allocates %.1f objects per call", n)
	}
}
