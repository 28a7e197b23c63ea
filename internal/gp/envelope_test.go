package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unico/internal/linalg"
)

// ladderJitter returns the jitter linalg's retry ladder settles on for the
// kernel matrix of x at p, as a grid fit would, or false when no rung
// factors it.
func ladderJitter(x [][]float64, p Params) (float64, bool) {
	k := linalg.New(len(x), len(x))
	buildMaternLower(k, sqDistLower(x), p.Lengthscale, p.Variance, p.Noise)
	_, jitter, err := linalg.CholeskyWithJitter(k)
	return jitter, err == nil
}

// Ways envelopeGPs builds a factor.
const (
	pathFitted   = iota // FitWithParams on every row
	pathExtended        // fitted on the first rows, grown by Extend
	pathRestored        // an extended GP rebuilt from its Params and jitter
	paths
)

// envelopeGPs builds one GP per grid lengthscale on n random training rows
// of dimension dim, some of them within 1e-9 of another, at signal variance
// sv and a noise drawn from the grid or 0 — a noise-free kernel matrix of
// close rows needs the jitter ladder. Each factor is made the way path says.
// With redraw, the alphas are then drawn directly: signed, some exactly zero,
// spread over orders of magnitude. The means read only the rows, the Params
// and alpha, so the alphas can be anything a fit could leave, not only what
// one leaves on these rows; the variances read only the factor.
func envelopeGPs(t *testing.T, rng *rand.Rand, n, dim int, sv float64, path int, redraw bool) []*GP {
	t.Helper()
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
		if i > 0 && rng.Intn(8) == 0 {
			for d := range x[i] {
				x[i][d] = x[i-1][d] + 1e-9*rng.NormFloat64()
			}
		}
		y[i] = rng.NormFloat64()
	}
	noises := append([]float64{0}, gridNoises...)
	gps := make([]*GP, len(gridLengthscales))
	for l, ls := range gridLengthscales {
		p := Params{Lengthscale: ls, Variance: sv, Noise: noises[rng.Intn(len(noises))]}
		jitter, ok := ladderJitter(x, p)
		for nz := 0; !ok; nz++ {
			p.Noise = gridNoises[nz]
			jitter, ok = ladderJitter(x, p)
		}
		grown := n - min(3, n-1)
		if path == pathFitted {
			grown = n
		}
		g, err := FitWithParams(x[:grown], y[:grown], p, jitter)
		if err != nil {
			t.Fatal(err)
		}
		for i := grown; i < n; i++ {
			if err := g.Extend(x[i], y[i]); err != nil {
				t.Fatal(err)
			}
		}
		if path == pathRestored {
			if g, err = FitWithParams(append([][]float64(nil), x...), y, p, g.Jitter()); err != nil {
				t.Fatal(err)
			}
		}
		g.meanY, g.stdY = rng.NormFloat64(), math.Exp(rng.NormFloat64())
		if redraw {
			for i := range g.alpha {
				g.alpha[i] = 0
				if rng.Intn(5) > 0 {
					g.alpha[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			g.splitAlpha()
		}
		gps[l] = g
	}
	return gps
}

// envelopeQueries returns query points for training rows x: a training row
// itself (d² = 0 to it), rows nudged off centre by a few units in the last
// place and by 1e-3, uniform points, points far outside the unit cube, where
// s runs past the table for every lengthscale, and for every grid
// lengthscale a point next to a row, the last float short of the table's
// first step for that lengthscale: there the lower kernel bound is f's value
// to within rounding, so the variance bound of a lone training point is
// tight.
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
	qs = append(qs, far)
	for _, ls := range gridLengthscales {
		q := append([]float64(nil), row...)
		d, scale := rng.Intn(dim), 5/(ls*ls)/envStep
		q[d] += math.Sqrt(1 / scale)
		for sqDist(row, q)*scale < 1 {
			q[d] = math.Nextafter(q[d], math.Inf(1))
		}
		for sqDist(row, q)*scale >= 1 {
			q[d] = math.Nextafter(q[d], math.Inf(-1))
		}
		qs = append(qs, q)
	}
	return qs
}

// envelopeMeansReference is Envelope's mean half as it stood before the
// distance pass streamed the inputs: every GP on its own, every distance
// from sqDist.
func envelopeMeansReference(gps []*GP, xs [][]float64) []float64 {
	ng := len(gps)
	mean := make([]float64, len(xs)*ng)
	for j, g := range gps {
		n, p := len(g.x), g.params
		d2, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		for k, x := range xs {
			for i, xi := range g.x {
				d2[i] = sqDist(xi, x)
			}
			envColumn(d2, 5/(p.Lengthscale*p.Lengthscale)/envStep, lo, hi)
			m := math.Inf(-1)
			if g.slack < math.Inf(1) {
				m = (p.Variance*envDot(lo, hi, g.pos, g.neg)-g.slack)*g.stdY + g.meanY
			}
			mean[k*ng+j] = m
		}
	}
	return mean
}

// checkEnvelope requires, for every (GP, point) of a tile, Envelope's mean
// == envelopeMeansReference's and <= PredictTile's, and its variance >=
// PredictTile's, on the floats, with no tolerance.
func checkEnvelope(t *testing.T, gps []*GP, xs [][]float64) {
	t.Helper()
	m := len(xs) * len(gps)
	env, envVar := make([]float64, m), make([]float64, m)
	exact, exactVar := make([]float64, m), make([]float64, m)
	Envelope(gps, xs, env, envVar)
	PredictTile(gps, xs, exact, exactVar, nil)
	ref := envelopeMeansReference(gps, xs)
	for i := range env {
		g := gps[i%len(gps)]
		where := func() string {
			return fmt.Sprintf("point %d, %+v, jitter %v, n %d", i/len(gps), g.params, g.jitter, len(g.x))
		}
		if env[i] != ref[i] {
			t.Fatalf("%s: envelope mean %v, reference %v", where(), env[i], ref[i])
		}
		if !(env[i] <= exact[i]) {
			t.Fatalf("%s: envelope %v exceeds the mean %v", where(), env[i], exact[i])
		}
		if !(envVar[i] >= exactVar[i]) {
			t.Fatalf("%s: envelope variance %v below the variance %v", where(), envVar[i], exactVar[i])
		}
	}
}

// FuzzEnvelopeBound checks the properties the acquisition search prunes on:
// the envelope mean is <= the bits PredictTile writes (and is the bits the
// envelope wrote before its distance pass streamed), and the envelope
// variance is >= the bits PredictTile writes. It covers every grid
// lengthscale, grid noises and noise 0 (the jitter ladder), signal variances
// from 1e-3 to 1e3, 1 to 150 training rows, factors fitted, grown by Extend
// and rebuilt by FitWithParams, fitted and redrawn alphas, and queries on a
// training row, just off it, at the table's first step and beyond the table,
// in dimensions 6 and 16.
//
// The mean half was shown to catch dropping the slack (the exact bound is
// tight on a training row), swapping the kernel bounds of positive and
// negative alphas, and holding s past the table at the wrong step. The
// variance half was shown to catch dropping its slack (keep = 1, no
// envKernelSlack and an M_ii bound not rounded up), bounding the nearest
// kernel value with hi instead of lo, and bounding M_ii by the signal
// variance, without the noise and the jitter.
func FuzzEnvelopeBound(f *testing.F) {
	f.Add(int64(1), uint8(20), false, 0.0, uint8(paths+pathFitted))
	f.Add(int64(2), uint8(150), true, 0.0, uint8(paths+pathExtended))
	f.Add(int64(3), uint8(1), false, 3.0, uint8(paths+pathRestored))
	f.Add(int64(4), uint8(64), true, -3.0, uint8(paths+pathExtended))
	f.Add(int64(-28), uint8(1), true, 3.0, uint8(paths+pathFitted)) // a lone point just off the query: the bounds are tight
	f.Add(int64(5), uint8(1), false, -1.5, uint8(pathFitted))
	f.Add(int64(6), uint8(90), false, 1.0, uint8(pathRestored))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, wide bool, logVar float64, path uint8) {
		if n == 0 || n > 150 || !(math.Abs(logVar) <= 3) {
			t.Skip()
		}
		dim := 6
		if wide {
			dim = 16
		}
		rng := rand.New(rand.NewSource(seed))
		gps := envelopeGPs(t, rng, int(n), dim, math.Pow(10, logVar), int(path%paths), path >= paths)
		xs := envelopeQueries(rng, gps[0].x)
		for lo := 0; lo < len(xs); lo += TileWidth {
			checkEnvelope(t, gps, xs[lo:min(lo+TileWidth, len(xs))])
		}
	})
}

// TestEnvelopeOnFittedGPs checks the bounds on GPs a grid fit leaves, whose
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
			checkEnvelope(t, []*GP{g}, xs[TileWidth:])
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
		gps := envelopeGPs(t, rng, 8, 6, 1, pathFitted, true)
		g := gps[2]
		own := *g.factor // its own Params
		g.factor = &own
		brk(g)
		g.splitAlpha()
		xs := envelopeQueries(rng, g.x)[:TileWidth]
		env, envVar := make([]float64, len(xs)*len(gps)), make([]float64, len(xs)*len(gps))
		Envelope(gps, xs, env, envVar)
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

// TestEnvelopeDoesNotAllocate pins the envelope's hot path, both halves, to
// pooled scratch.
func TestEnvelopeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	gps := envelopeGPs(t, rng, 40, 6, 1, pathExtended, false)
	xs := envelopeQueries(rng, gps[0].x)[:TileWidth]
	env, envVar := make([]float64, len(xs)*len(gps)), make([]float64, len(xs)*len(gps))
	run := func() { Envelope(gps, xs, env, envVar) }
	run()
	if n := testing.AllocsPerRun(100, run); n > 0 {
		t.Fatalf("Envelope allocates %.1f objects per call", n)
	}
}

// TestDistancePassIsSqDist holds the streaming distance pass to sqDist's
// bits, and its nearest row to the first row of least sqDist, in dimensions
// 6 and 16, with off-lattice queries, a query on a training row and one on
// two equally near rows, on a fitted factor and on factors grown by
// ExtendAll, which must share one dimension-major copy of their inputs.
func TestDistancePassIsSqDist(t *testing.T) {
	for _, dim := range []int{6, 16} {
		x, y := randomData(30, dim, int64(dim))
		x = append(x, append([]float64(nil), x[4]...)) // row 30 equals row 4
		y = append(y, y[4])
		gps := fitShared(t, x, y, []Params{{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}, {Lengthscale: 0.6, Variance: 1, Noise: 1e-2}}, []float64{0, 0})
		check := func(what string, g *GP) {
			t.Helper()
			xs := tilePoints(g.x, int64(dim))
			xs[1] = append([]float64(nil), x[4]...)
			sc := new(tileScratch)
			n := sc.distances(g, xs)
			for k, q := range xs {
				near := 0
				for i, xi := range g.x {
					want := sqDist(xi, q)
					if got := sc.d2[k*n+i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, dim %d, point %d, row %d: distance %v, sqDist %v", what, dim, k, i, got, want)
					}
					if want < sqDist(g.x[near], q) {
						near = i
					}
				}
				if sc.near[k] != near {
					t.Fatalf("%s, dim %d, point %d: nearest row %d, want %d", what, dim, k, sc.near[k], near)
				}
			}
		}
		check("fitted", gps[0])
		more, ys := randomData(3, dim, int64(dim)+1)
		if _, err := ExtendAll(gps, more, [][]float64{ys, ys}, nil); err != nil {
			t.Fatal(err)
		}
		check("extended", gps[1])
		if &gps[0].xt[0] != &gps[1].xt[0] {
			t.Fatalf("dim %d: two factors on one input set hold two transposes", dim)
		}
	}
}
