package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gaussSolve solves A·X = B by Gaussian elimination with partial pivoting,
// the dense textbook method, sharing nothing with linalg's Cholesky: a is
// n×n and b n×m, both row-major and both overwritten; X lands in b.
func gaussSolve(a, b [][]float64) {
	n := len(a)
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[c], a[p] = a[p], a[c]
		b[c], b[p] = b[p], b[c]
		for r := c + 1; r < n; r++ {
			f := a[r][c] / a[c][c]
			for k := c; k < n; k++ {
				a[r][k] -= f * a[c][k]
			}
			for k := range b[r] {
				b[r][k] -= f * b[c][k]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		for k := range b[r] {
			s := b[r][k]
			for j := r + 1; j < n; j++ {
				s -= a[r][j] * b[j][k]
			}
			b[r][k] = s / a[r][r]
		}
	}
}

// posteriorOracle is the GP posterior at x straight from its definition
// (Rasmussen & Williams eq. 2.25–2.26, on standardized targets): with
// A = K(X, X) + (σ_n² + jitter)·I and k* = K(X, x),
//
//	mean     = meanY + stdY · k*ᵀ A⁻¹ ys
//	variance = stdY² · (k(x, x) + σ_n² − k*ᵀ A⁻¹ k*)
//
// with A⁻¹ applied by gaussSolve and every kernel value from maternOracle.
func posteriorOracle(g *GP, x []float64) (mean, variance float64) {
	n := len(g.x)
	a := make([][]float64, n)
	b := make([][]float64, n)
	ks := make([]float64, n)
	for i, xi := range g.x {
		a[i] = make([]float64, n)
		for j, xj := range g.x {
			a[i][j] = maternOracle(g.params, xi, xj)
		}
		a[i][i] += g.params.Noise + g.jitter
		ks[i] = maternOracle(g.params, xi, x)
		b[i] = []float64{(g.rawY[i] - g.meanY) / g.stdY, ks[i]}
	}
	gaussSolve(a, b)
	var mu, q float64
	for i := range ks {
		mu += ks[i] * b[i][0]
		q += ks[i] * b[i][1]
	}
	return g.meanY + g.stdY*mu, g.stdY * g.stdY * (maternOracle(g.params, x, x) + g.params.Noise - q)
}

// maternOracle is the Matérn-5/2 kernel written from its definition,
// σ²·(1 + √5·d/ℓ + 5d²/(3ℓ²))·exp(−√5·d/ℓ), sharing no code with the
// package's.
func maternOracle(p Params, x, y []float64) float64 {
	d := 0.0
	for i := range x {
		d = math.Hypot(d, x[i]-y[i])
	}
	s := math.Sqrt(5) * d / p.Lengthscale
	return p.Variance * (1 + s + s*s/3) * math.Exp(-s)
}

// oracleTol is the agreement required between Predict and the oracle, on
// the standardized scale (mean − meanY and variance over stdY and stdY²),
// absolute: the two solves round differently, and at these sizes and
// noise levels (the smallest σ_n² is 1e-4) they differ by less than 1e-13
// — while a wrong noise term moves a variance by at least 1e-4.
const oracleTol = 1e-9

// TestPredictMatchesDenseOracle holds Predict's mean and variance to
// posteriorOracle within oracleTol, for GPs at every grid noise and at
// grid-fitted Params (pinned jitter included), on training sets of 5 to 150
// points, at seeded points, training inputs and a point far outside the
// data. Far from the data the variance must reach the prior k(x,x) + σ_n² as
// well, so both sides read the same noise term.
//
// It was shown to catch a variance without its noise term (Predict's
// standardized variance k(x,x) − Σv²: off by σ_n² at every point), and a
// mean left standardized (meanY dropped).
func TestPredictMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var gps []*GP
	name := map[*GP]string{}
	add := func(g *GP, err error, what string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		gps = append(gps, g)
		name[g] = what
	}
	for _, n := range []int{5, 40, 150} {
		x, y := randomData(n, 4, int64(n))
		for i := range y {
			y[i] = 3 + 2*y[i] // targets that need the standardization
		}
		for _, nz := range gridNoises {
			g, err := FitWithParams(x, y, Params{Lengthscale: 0.3, Variance: 1, Noise: nz}, 0)
			add(g, err, fmt.Sprintf("Matérn n=%d noise=%v", n, nz))
		}
		g, err := FitAuto(x, y)
		add(g, err, fmt.Sprintf("grid fit n=%d", n))
	}
	for _, g := range gps {
		points := [][]float64{g.x[0], g.x[len(g.x)/2], {40, 40, 40, 40}}
		for i := 0; i < 20; i++ {
			points = append(points, []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()})
		}
		for _, x := range points {
			m, v := g.Predict(x)
			om, ov := posteriorOracle(g, x)
			if d := math.Abs(m-om) / g.stdY; !(d <= oracleTol) {
				t.Errorf("%s at %v: mean %v, oracle %v (standardized gap %.3g)", name[g], x, m, om, d)
			}
			if d := math.Abs(v-ov) / (g.stdY * g.stdY); !(d <= oracleTol) {
				t.Errorf("%s at %v: variance %v, oracle %v (standardized gap %.3g)", name[g], x, v, ov, d)
			}
		}
		far := g.stdY * g.stdY * (g.params.Variance + g.params.Noise)
		if _, v := g.Predict(points[2]); math.Abs(v-far) > oracleTol*far {
			t.Errorf("%s: variance far from the data %v, prior %v", name[g], v, far)
		}
	}
}
