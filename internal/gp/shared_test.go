package gp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"unico/internal/linalg"
	"unico/internal/parpool"
)

// fitReference is FitAutoFrom as it stood before the objectives shared one
// grid fit: one target alone, its window of the grid (the ±1 neighborhood of
// prev's lengthscale, or everything), every (lengthscale, noise) candidate
// built and factored in grid order, strictly better wins.
func fitReference(t *testing.T, x [][]float64, y []float64, prev *Params) *GP {
	t.Helper()
	lss := gridLengthscales
	if prev != nil {
		for i, ls := range gridLengthscales {
			if ls == prev.Lengthscale {
				lss = gridLengthscales[max(i-1, 0):min(i+2, len(gridLengthscales))]
			}
		}
	}
	n := len(x)
	mean, std := meanStd(y)
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - mean) / std
	}
	var best *GP
	bestLML := math.Inf(-1)
	for _, ls := range lss {
		for _, nz := range gridNoises {
			k := linalg.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					k.Set(i, j, matern52FromSq(sqDist(x[i], x[j]), ls, 1))
				}
				k.Set(i, i, 1+nz)
			}
			chol := linalg.New(n, n)
			jitter, err := linalg.CholeskyInto(chol, k)
			if err != nil {
				continue
			}
			alpha := make([]float64, n)
			linalg.CholeskySolveInto(chol, ys, alpha)
			if lml := lmlFromChol(chol, alpha, make([]float64, n)); lml > bestLML {
				p := Params{Lengthscale: ls, Variance: 1, Noise: nz}
				best = &GP{
					factor: newFactor(p, jitter, x, transposed(x), chol),
					rawY:   append([]float64(nil), y...), alpha: alpha, meanY: mean, stdY: std,
				}
				bestLML = lml
			}
		}
	}
	if best == nil {
		t.Fatal("reference fit: no candidate factored")
	}
	return best
}

// sameGP reports the first field in which two GPs differ, bit for bit:
// Params, jitter, inputs (and their transpose), factor, the variance
// bound's view of it, alpha, standardization, log marginal likelihood. It
// returns "" when they are the same.
func sameGP(a, b *GP) string {
	switch {
	case a.params != b.params:
		return "params"
	case a.jitter != b.jitter:
		return "jitter"
	case !sameInputs(a.x, b.x) || !sameBits(a.xt, b.xt):
		return "inputs"
	case a.meanY != b.meanY || a.stdY != b.stdY || !sameBits(a.rawY, b.rawY):
		return "targets"
	case !sameBits(a.chol.Data, b.chol.Data):
		return "factor"
	case !sameBits(a.diag, b.diag) || a.keep != b.keep:
		return "variance bound"
	case !sameBits(a.alpha, b.alpha):
		return "alpha"
	case a.LogMarginalLikelihood() != b.LogMarginalLikelihood():
		return "log marginal likelihood"
	}
	return ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// twoWorkers is the Fanout of a two-goroutine pool.
func twoWorkers(n int, fn func(i int)) { parpool.ForEach(2, n, fn) }

// objectives builds four target vectors on x that want different
// hyperparameters: a smooth bowl, a rough ripple, noise, and the bowl again.
func objectives(x [][]float64, rng *rand.Rand) [][]float64 {
	ys := make([][]float64, 4)
	for j := range ys {
		ys[j] = make([]float64, len(x))
	}
	for i, xi := range x {
		bowl, ripple := 0.0, 0.0
		for d, v := range xi {
			bowl += (v - 0.4) * (v - 0.4)
			ripple += math.Sin(17 * v * float64(d+1))
		}
		ys[0][i] = bowl
		ys[1][i] = ripple
		ys[2][i] = rng.NormFloat64()
		ys[3][i] = 3*bowl + 0.01*rng.NormFloat64()
	}
	return ys
}

// TestFitAutoAllMatchesSeparateFits holds the shared grid fit to a separate
// fit of every target (fitReference), bit for bit — Params, jitter, factor,
// alpha and log marginal likelihood — on seeded input sets of 3 to 150
// rows, with warm starts that are nil, off the grid, on it, and at either
// end of it, mixed so the targets' windows differ, serially and on two
// workers. Targets that select the same candidate must hold one factor.
//
// It was shown to catch every target scoring and scanning the union of the
// windows instead of its own, and a >= tie-break across lengthscales (the
// far-apart rows below tie every lengthscale exactly).
func TestFitAutoAllMatchesSeparateFits(t *testing.T) {
	on := func(ls, nz float64) *Params { return &Params{Lengthscale: ls, Variance: 1, Noise: nz} }
	warms := map[string][]*Params{
		"cold":     nil,
		"nil-each": {nil, nil, nil, nil},
		"off-grid": {on(0.123, 1e-2), nil, on(0.3, 1e-4), on(7, 5e-2)},
		"ends":     {on(0.08, 1e-4), on(1.2, 1e-2), on(0.08, 5e-2), on(1.2, 1e-4)},
		"middle":   {on(0.3, 1e-2), on(0.15, 1e-2), on(0.6, 1e-4), on(0.3, 5e-2)},
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{3, 4, 9, 31, 70, 150} {
		x, _ := randomData(n, 6, int64(n))
		ys := objectives(x, rng)
		// Rows a thousand apart: every kernel off-diagonal underflows to 0,
		// so every lengthscale gives the same factor and the tie-break picks.
		far := make([][]float64, 3)
		for i := range far {
			far[i] = []float64{1000 * float64(i), 0}
		}
		farYs := [][]float64{{1, 2, 4}, {0, 0, 0}, {3, 1, 2}, {1, 2, 4}}
		for name, warm := range warms {
			for _, set := range []struct {
				x  [][]float64
				ys [][]float64
			}{{x, ys}, {far, farYs}} {
				for _, fan := range []Fanout{nil, twoWorkers} {
					got, err := FitAutoAll(set.x, set.ys, warm, fan)
					if err != nil {
						t.Fatal(err)
					}
					for j, y := range set.ys {
						var prev *Params
						if warm != nil {
							prev = warm[j]
						}
						if diff := sameGP(got[j], fitReference(t, set.x, y, prev)); diff != "" {
							t.Fatalf("n=%d, warm %s, target %d: %s differs from a separate fit", len(set.x), name, j, diff)
						}
						one, err := FitAutoFrom(set.x, y, prev)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameGP(one, got[j]); diff != "" {
							t.Fatalf("n=%d, warm %s, target %d: FitAutoFrom's %s differs from the shared fit", len(set.x), name, j, diff)
						}
						for i := 0; i < j; i++ {
							if (got[i].factor == got[j].factor) != (got[i].params == got[j].params) {
								t.Fatalf("n=%d, warm %s: targets %d and %d at %+v and %+v share a factor: %v",
									len(set.x), name, i, j, got[i].params, got[j].params, got[i].factor == got[j].factor)
							}
						}
					}
				}
			}
		}
	}
}

// TestFitAutoAllRejectsBadShapes covers the errors of the shared fit.
func TestFitAutoAllRejectsBadShapes(t *testing.T) {
	x, y := randomData(5, 2, 1)
	if _, err := FitAutoAll(nil, [][]float64{nil}, nil, nil); err != ErrNoData {
		t.Errorf("no inputs: %v, want ErrNoData", err)
	}
	if _, err := FitAutoAll(x, [][]float64{y, y[:4]}, nil, nil); err == nil {
		t.Error("a short target vector was accepted")
	}
	if _, err := FitAutoAll(x, [][]float64{y, y}, []*Params{nil}, nil); err == nil {
		t.Error("one warm start for two targets was accepted")
	}
}

// fitPinned fits ys[j] on x at exactly ps[j] and jitters[j], and puts the
// GPs of equal Params and jitter on one factor, as a grid fit leaves them.
func fitPinned(t *testing.T, x [][]float64, ys [][]float64, ps []Params, jitters []float64) []*GP {
	t.Helper()
	gps := make([]*GP, len(ys))
	for j := range ys {
		g, err := FitWithParams(x, ys[j], ps[j], jitters[j])
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range gps[:j] {
			if h.params == ps[j] && h.jitter == jitters[j] {
				g.factor = h.factor
				break
			}
		}
		gps[j] = g
	}
	return gps
}

// TestExtendAllMatchesIndependentExtends grows a shared-factor set (four
// targets, the first and last on one factor) by k points at once, serially
// and on two workers, and holds every GP to an unshared copy grown by
// Extend one point at a time, bit for bit. The set must still share one
// factor per group, and the group must have extended once per point. It was
// shown to catch extending by the first new point only.
func TestExtendAllMatchesIndependentExtends(t *testing.T) {
	x, _ := randomData(60, 4, 12)
	ys := objectives(x, rand.New(rand.NewSource(12)))
	a := Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}
	b := Params{Lengthscale: 0.6, Variance: 1, Noise: 1e-4}
	ps := []Params{a, b, a, a}
	jitters := []float64{0, 0, 1e-10, 0}
	const n0 = 40
	for _, k := range []int{1, 3, 20} {
		for _, fan := range []Fanout{nil, twoWorkers} {
			prefix := make([][]float64, len(ys))
			for j, y := range ys {
				prefix[j] = y[:n0]
			}
			gps := fitPinned(t, x[:n0], prefix, ps, jitters)
			tails := make([][]float64, len(ys))
			for j, y := range ys {
				tails[j] = y[n0 : n0+k]
			}
			got, err := ExtendAll(gps, x[n0:n0+k], tails, fan)
			if err != nil {
				t.Fatal(err)
			}
			if want := 3 * k; got != want {
				t.Fatalf("k=%d: %d factor extends, want %d (three distinct factors)", k, got, want)
			}
			if gps[0].factor != gps[3].factor {
				t.Fatalf("k=%d: the shared group split", k)
			}
			for j, g := range gps {
				alone, err := FitWithParams(x[:n0], ys[j][:n0], ps[j], jitters[j])
				if err != nil {
					t.Fatal(err)
				}
				for i := n0; i < n0+k; i++ {
					if err := alone.Extend(x[i], ys[j][i]); err != nil {
						t.Fatal(err)
					}
				}
				if diff := sameGP(g, alone); diff != "" {
					t.Fatalf("k=%d, GP %d: %s differs from independent extends", k, j, diff)
				}
			}
		}
	}
}

// TestExtendAllFailureChangesNothing extends two factors by a good point
// and then a NaN one, whose bordered pivot is NaN: the error must leave
// every GP as it was, the first point included.
func TestExtendAllFailureChangesNothing(t *testing.T) {
	x, y := randomData(12, 2, 6)
	var gps []*GP
	for _, nz := range []float64{1e-2, 1e-4} {
		g, err := FitWithParams(x[:10], y[:10], Params{Lengthscale: 0.3, Variance: 1, Noise: nz}, 0)
		if err != nil {
			t.Fatal(err)
		}
		gps = append(gps, g)
	}
	was := []GP{*gps[0], *gps[1]}
	bad := []float64{math.NaN(), math.NaN()}
	if n, err := ExtendAll(gps, [][]float64{x[10], bad}, [][]float64{{1, 2}, {1, 2}}, twoWorkers); err == nil || n != 0 {
		t.Fatalf("a singular extend returned %d extends and error %v", n, err)
	}
	for j, g := range gps {
		if diff := sameGP(g, &was[j]); diff != "" {
			t.Fatalf("GP %d: %s changed by a failed extend", j, diff)
		}
	}
}

// TestExtendAllMatchesOneAtATime grows three distinct factors, shared by
// four GPs, by k ∈ {1, 2, 5, 17} points in one ExtendAll and again by k
// one-point ExtendAll calls: factor, variance bound, alpha and every other
// field must agree bit for bit. The batch must also allocate less than one
// grown factor's bytes beyond one grown factor per distinct factor, where
// growing one point at a time allocates a whole factor per point.
func TestExtendAllMatchesOneAtATime(t *testing.T) {
	x, _ := randomData(117, 5, 21)
	ys := objectives(x, rand.New(rand.NewSource(21)))
	a := Params{Lengthscale: 0.3, Variance: 1, Noise: 1e-2}
	b := Params{Lengthscale: 0.6, Variance: 1, Noise: 1e-4}
	ps := []Params{a, b, a, a}
	jitters := []float64{0, 0, 1e-10, 0}
	const n0, distinct = 100, 3
	fit := func() []*GP {
		prefix := make([][]float64, len(ys))
		for j, y := range ys {
			prefix[j] = y[:n0]
		}
		return fitPinned(t, x[:n0], prefix, ps, jitters)
	}
	targets := func(lo, hi int) [][]float64 {
		out := make([][]float64, len(ys))
		for j, y := range ys {
			out[j] = y[lo:hi]
		}
		return out
	}
	for _, k := range []int{1, 2, 5, 17} {
		batch, each := fit(), fit()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ExtendAll(batch, x[n0:n0+k], targets(n0, n0+k), nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i := n0; i < n0+k; i++ {
			if _, err := ExtendAll(each, x[i:i+1], targets(i, i+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		for j := range batch {
			if diff := sameGP(batch[j], each[j]); diff != "" {
				t.Fatalf("k=%d, GP %d: %s differs from one-point extends", k, j, diff)
			}
		}
		factor := uint64(8 * (n0 + k) * (n0 + k))
		if got := after.TotalAlloc - before.TotalAlloc; got >= (distinct+1)*factor {
			t.Fatalf("k=%d: ExtendAll allocated %d bytes, want under %d (%d factors of %d bytes and less than one more)",
				k, got, (distinct+1)*factor, distinct, factor)
		}
	}
}
