// Package gp implements Gaussian-process regression, the surrogate model of
// UNICO's multi-objective Bayesian optimization (paper Section 3.2).
//
// The regressor follows the textbook formulation (Rasmussen & Williams,
// Algorithm 2.1): targets are standardized, the kernel matrix is factored by
// Cholesky, and hyperparameters (a shared lengthscale, signal variance and
// noise) are selected by maximizing the log marginal likelihood over a small
// grid — robust and dependency-free, which is what a from-scratch surrogate
// wants.
//
// # Fast refits and incremental extends
//
// FitAuto shares one squared-distance matrix across every grid candidate
// (the O(n²·d) distance pass runs once, not once per candidate) and reuses
// two factor/alpha scratch pairs, so a refit allocates a constant number of
// buffers. FitAutoFrom warm-starts the grid search in the ±1 lengthscale
// neighborhood of a previous optimum — the cadence policy (when to warm-
// refit versus full-refit) lives in the caller (internal/mobo).
//
// Extend appends one observation in O(n²) via linalg.CholeskyExtend instead
// of refactorizing. Because the bordered extend is bit-identical to a
// from-scratch factorization at the same jitter (see internal/linalg), a GP
// grown by Extend equals one produced by FitWithParams on the full data
// with the same hyperparameters and pinned jitter, bit for bit — this is
// what keeps checkpoint/resume runs identical to uninterrupted ones while
// the optimizer extends surrogates incrementally. Params/Jitter expose the
// values a caller must persist to reproduce a fitted GP exactly.
//
// # Tiled prediction
//
// PredictTile evaluates several GPs at up to TileWidth points in one call,
// and is the only prediction routine: Predict is its one-GP, one-point case.
// The optimizer's per-objective GPs share their training inputs and, often,
// hyperparameters, so a tile computes the squared distances once, the kernel
// column once per distinct lengthscale and the forward solve once per
// distinct factor, with the tile's points as interleaved lanes of one
// multi-right-hand-side solve. Every (GP, point) result is bit-identical to
// evaluating that pair alone. Asked for means only (a nil variance), a tile
// skips the solves — the O(n²) part — and MaxVariance says how large the
// variance it did not compute can be; internal/mobo ranks candidates on that
// before paying for any solve.
//
// # Concurrency
//
// A fitted GP is immutable under Predict and PredictTile (scratch space
// comes from a sync.Pool, not the receiver), so concurrent calls on one GP
// are safe — the acquisition worker pool in internal/mobo relies on this.
// Fit/Extend must not race with either.
package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"unico/internal/linalg"
	"unico/internal/perfprof"
	"unico/internal/telemetry"
)

// fitCount counts surrogate fits process-wide (one per FitAuto/FitAutoFrom
// call, not per grid point, so it tracks the number of refit decisions).
var fitCount = telemetry.GPFits()

// extendCount counts incremental one-observation extends, the refits the
// warm-start path avoided.
var extendCount = telemetry.GPExtends()

// Kernel is a positive-definite covariance function on R^d.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
}

// RBF is the squared-exponential kernel
// k(x,y) = σ²·exp(-‖x-y‖² / (2ℓ²)).
type RBF struct {
	Lengthscale float64
	Variance    float64
}

// Eval returns k(x, y).
func (k RBF) Eval(x, y []float64) float64 {
	return k.Variance * math.Exp(-sqDist(x, y)/(2*k.Lengthscale*k.Lengthscale))
}

// Matern52 is the Matérn-5/2 kernel, the default surrogate kernel in most
// BO frameworks: rougher than RBF, a better fit for hardware cost surfaces
// with ceil-division kinks.
type Matern52 struct {
	Lengthscale float64
	Variance    float64
}

// Eval returns k(x, y).
func (k Matern52) Eval(x, y []float64) float64 {
	return matern52FromSq(sqDist(x, y), k.Lengthscale, k.Variance)
}

// matern52FromSq evaluates the Matérn-5/2 kernel from a squared distance.
// The expression mirrors Matern52.Eval operation for operation so values
// computed from a shared distance matrix are bit-identical to direct Eval
// calls — FitAuto's grid search and Extend's covariance column depend on
// that.
func matern52FromSq(d2, lengthscale, variance float64) float64 {
	r := math.Sqrt(d2) / lengthscale
	s := math.Sqrt(5) * r
	return variance * (1 + s + 5*r*r/3) * math.Exp(-s)
}

func sqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: dimension mismatch %d vs %d", len(x), len(y)))
	}
	sum := 0.0
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
	}
	return sum
}

// Params are the hyperparameters FitAuto selects, exposed so callers can
// persist them (checkpoints) and warm-start later refits.
type Params struct {
	Lengthscale float64 `json:"lengthscale"`
	Variance    float64 `json:"variance"`
	Noise       float64 `json:"noise"`
}

// GP is a fitted Gaussian-process regressor.
type GP struct {
	kernel    Kernel
	params    Params
	hasParams bool
	noise     float64
	jitter    float64
	x         [][]float64
	rawY      []float64
	chol      *linalg.Matrix
	alpha     []float64
	meanY     float64
	stdY      float64
}

// ErrNoData reports a fit attempt with no training points.
var ErrNoData = errors.New("gp: no training data")

// Fit trains a GP on (x, y) with fixed kernel hyperparameters.
func Fit(x [][]float64, y []float64, kernel Kernel, noise float64) (*GP, error) {
	defer perfprof.Begin("gp.fit").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	n := len(x)
	k := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(x[i], x[j])
			if i == j {
				v += noise
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, jitter, err := linalg.CholeskyWithJitter(k)
	if err != nil {
		return nil, fmt.Errorf("gp: %w", err)
	}
	g := &GP{
		kernel: kernel, noise: noise, jitter: jitter,
		x: x, chol: chol,
		rawY: append([]float64(nil), y...),
	}
	if m, ok := kernel.(Matern52); ok {
		g.params = Params{Lengthscale: m.Lengthscale, Variance: m.Variance, Noise: noise}
		g.hasParams = true
	}
	g.refreshTargets()
	return g, nil
}

// refreshTargets (re)standardizes rawY and recomputes alpha against the
// current factor.
func (g *GP) refreshTargets() {
	n := len(g.rawY)
	g.meanY, g.stdY = meanStd(g.rawY)
	ys := make([]float64, n)
	for i, v := range g.rawY {
		ys[i] = (v - g.meanY) / g.stdY
	}
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	linalg.CholeskySolveInto(g.chol, ys, g.alpha)
}

// gridLengthscales and gridNoises are FitAuto's hyperparameter grid.
var (
	gridLengthscales = []float64{0.08, 0.15, 0.3, 0.6, 1.2}
	gridNoises       = []float64{1e-4, 1e-2, 5e-2}
)

// FitAuto trains a GP selecting hyperparameters by log-marginal-likelihood
// grid search over lengthscales and noise levels, with Matérn-5/2 kernels of
// unit signal variance on standardized targets.
func FitAuto(x [][]float64, y []float64) (*GP, error) {
	return fitGrid(x, y, gridLengthscales)
}

// FitAutoFrom is FitAuto warm-started at a previous optimum: the grid
// search is restricted to the ±1 lengthscale neighborhood of prev (all
// noise levels are always searched — the noise grid is small). A nil prev,
// or one whose lengthscale is no longer on the grid, falls back to the
// full grid. The selection is deterministic either way.
func FitAutoFrom(x [][]float64, y []float64, prev *Params) (*GP, error) {
	if prev == nil {
		return fitGrid(x, y, gridLengthscales)
	}
	at := -1
	for i, ls := range gridLengthscales {
		if ls == prev.Lengthscale {
			at = i
			break
		}
	}
	if at < 0 {
		return fitGrid(x, y, gridLengthscales)
	}
	lo, hi := at-1, at+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(gridLengthscales) {
		hi = len(gridLengthscales)
	}
	return fitGrid(x, y, gridLengthscales[lo:hi])
}

// FitWithParams trains a GP at exactly the given hyperparameters and
// diagonal jitter — no grid search, no jitter retry ladder. Checkpoint
// restores use it to rebuild a surrogate bit-identical to the one a live
// run held (whether that run produced it by grid search or grew it with
// Extend).
func FitWithParams(x [][]float64, y []float64, p Params, jitter float64) (*GP, error) {
	defer perfprof.Begin("gp.fit").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	n := len(x)
	d2 := sqDistLower(x)
	k := linalg.New(n, n)
	buildMaternLower(k, d2, p.Lengthscale, p.Variance, p.Noise)
	chol := linalg.New(n, n)
	if err := linalg.CholeskyFixedInto(chol, k, jitter); err != nil {
		return nil, fmt.Errorf("gp: %w", err)
	}
	g := &GP{
		kernel: Matern52{Lengthscale: p.Lengthscale, Variance: p.Variance},
		params: p, hasParams: true,
		noise: p.Noise, jitter: jitter,
		x: x, chol: chol,
		rawY: append([]float64(nil), y...),
	}
	g.refreshTargets()
	return g, nil
}

// fitGrid runs the log-marginal-likelihood grid search over the given
// lengthscales (× all noise levels). One squared-distance matrix is shared
// by every candidate, the kernel matrix is rebuilt per lengthscale with
// only the diagonal varying per noise level, and two factor/alpha scratch
// pairs alternate so the winner's factor survives without refactorizing.
func fitGrid(x [][]float64, y []float64, lengthscales []float64) (*GP, error) {
	defer perfprof.Begin("gp.fit_auto").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	fitCount.Inc()
	n := len(x)
	mean, std := meanStd(y)
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - mean) / std
	}

	d2 := sqDistLower(x)
	k := linalg.New(n, n)
	cand, spare := linalg.New(n, n), linalg.New(n, n)
	candAlpha, spareAlpha := make([]float64, n), make([]float64, n)
	w := make([]float64, n)

	var (
		found      bool
		bestParams Params
		bestJitter float64
		bestLML    = math.Inf(-1)
	)
	for _, ls := range lengthscales {
		buildMaternLower(k, d2, ls, 1, 0)
		for _, nz := range gridNoises {
			for i := 0; i < n; i++ {
				k.Data[i*n+i] = 1 + nz
			}
			jitter, err := linalg.CholeskyInto(cand, k)
			if err != nil {
				continue
			}
			linalg.CholeskySolveInto(cand, ys, candAlpha)
			lml := lmlFromChol(cand, candAlpha, w)
			if lml > bestLML {
				found = true
				bestParams = Params{Lengthscale: ls, Variance: 1, Noise: nz}
				bestJitter = jitter
				bestLML = lml
				cand, spare = spare, cand
				candAlpha, spareAlpha = spareAlpha, candAlpha
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("gp: all hyperparameter candidates failed to factor")
	}
	g := &GP{
		kernel: Matern52{Lengthscale: bestParams.Lengthscale, Variance: bestParams.Variance},
		params: bestParams, hasParams: true,
		noise: bestParams.Noise, jitter: bestJitter,
		x: x, chol: spare, alpha: spareAlpha,
		rawY:  append([]float64(nil), y...),
		meanY: mean, stdY: std,
	}
	return g, nil
}

// sqDistLower fills the lower triangle of the pairwise squared-distance
// matrix.
func sqDistLower(x [][]float64) *linalg.Matrix {
	n := len(x)
	d2 := linalg.New(n, n)
	for i := 0; i < n; i++ {
		row := d2.Data[i*n : i*n+n]
		for j := 0; j < i; j++ {
			row[j] = sqDist(x[i], x[j])
		}
	}
	return d2
}

// buildMaternLower writes the lower triangle of the Matérn-5/2 kernel
// matrix (plus diagonal noise) from a squared-distance matrix.
func buildMaternLower(dst, d2 *linalg.Matrix, lengthscale, variance, noise float64) {
	n := d2.Rows
	for i := 0; i < n; i++ {
		src := d2.Data[i*n : i*n+n]
		row := dst.Data[i*n : i*n+n]
		for j := 0; j < i; j++ {
			row[j] = matern52FromSq(src[j], lengthscale, variance)
		}
		row[i] = variance + noise
	}
}

// Extend incorporates one new observation in O(n²): the factor grows by
// the bordered scheme (linalg.CholeskyExtend) at the pinned jitter, targets
// are re-standardized and alpha is recomputed. Hyperparameters are not
// re-selected — the caller decides when drift warrants a refit (see
// LogMarginalLikelihood). The result is bit-identical to FitWithParams on
// the extended data at the same hyperparameters and jitter. On error the
// receiver is unchanged and the caller should fall back to a full refit.
func (g *GP) Extend(xNew []float64, yNew float64) error {
	defer perfprof.Begin("gp.extend").End()
	n := len(g.x)
	k := make([]float64, n)
	for i := range g.x {
		k[i] = g.kernel.Eval(g.x[i], xNew)
	}
	d := g.kernel.Eval(xNew, xNew) + g.noise
	chol, err := linalg.CholeskyExtend(g.chol, k, d, g.jitter)
	if err != nil {
		return fmt.Errorf("gp: %w", err)
	}
	extendCount.Inc()
	g.chol = chol
	g.x = append(g.x[:n:n], xNew)
	g.rawY = append(g.rawY, yNew)
	g.refreshTargets()
	return nil
}

// Params reports the hyperparameters the GP was fitted with, when it was
// produced by the Matérn grid (FitAuto, FitAutoFrom, FitWithParams, or Fit
// with a Matern52 kernel).
func (g *GP) Params() (Params, bool) { return g.params, g.hasParams }

// Jitter reports the diagonal jitter baked into the current factor.
// Persist it alongside Params to rebuild the GP exactly via FitWithParams.
func (g *GP) Jitter() float64 { return g.jitter }

// LogMarginalLikelihood returns log p(y|X) of the standardized targets,
// using the identity log p = -½·yᵀα - Σᵢ log Lᵢᵢ - n/2·log 2π with
// y reconstructed as K·α = L·(Lᵀ·α).
func (g *GP) LogMarginalLikelihood() float64 {
	w := make([]float64, len(g.x))
	return lmlFromChol(g.chol, g.alpha, w)
}

// lmlFromChol computes the log marginal likelihood from a factor and its
// alpha, using w (length n) as scratch for Lᵀ·α.
func lmlFromChol(chol *linalg.Matrix, alpha, w []float64) float64 {
	n := chol.Rows
	for k := 0; k < n; k++ {
		sum := 0.0
		for j := k; j < n; j++ {
			sum += chol.At(j, k) * alpha[j]
		}
		w[k] = sum
	}
	quad := 0.0 // yᵀα = (L·w)ᵀα = wᵀ(Lᵀα) = wᵀw
	for _, v := range w {
		quad += v * v
	}
	return -0.5*quad - 0.5*linalg.LogDetFromChol(chol) - 0.5*float64(n)*math.Log(2*math.Pi)
}

// TileWidth is the most candidates one PredictTile call takes.
const TileWidth = linalg.MaxLanes

// tileScratch is the per-call working set of PredictTile, pooled so the hot
// path allocates nothing and concurrent calls never share buffers. d2, ks
// and v hold one value per (training point, lane), interleaved the way
// linalg.SolveLowerLanesInto wants them; ss holds Σv² per (GP, lane); lead
// holds the three leader indices of every GP.
type tileScratch struct {
	d2, ks, v, ss []float64
	lead          []int
}

var tilePool = sync.Pool{New: func() any { return new(tileScratch) }}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// sameInputs reports whether two training-input sets are the same points in
// the same order, judged by identity: row i of both is the same memory. That
// is how internal/mobo builds its per-objective GPs (every objective's rows
// are the optimizer's own observation vectors, through fits, Extends and
// restores alike), and it is a test that cannot be fooled into sharing
// distances between sets that merely have equal length.
func sameInputs(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && &a[i][0] != &b[i][0]) {
			return false
		}
	}
	return true
}

// PredictTile evaluates every GP of gps at every point of xs (at most
// TileWidth of them): mean[k*len(gps)+j] and variance[k*len(gps)+j] are
// exactly what gps[j].Predict(xs[k]) returns, bit for bit.
//
// A nil variance asks for the means only: the forward solves and Σv² — the
// O(n²) part of a tile — are skipped, and every mean is the same operations
// in the same order, so the same bits. GP.MaxVariance bounds what was not
// computed.
//
// The tile does each piece of work once per distinct input rather than once
// per (GP, point). GPs fitted on one training-input set (sameInputs) share
// the squared distances to it; those that also share a Matérn lengthscale
// and variance share the kernel column, built with matern52FromSq; those
// that also share noise and jitter share the Cholesky factor — it is a
// function of the inputs, Params and jitter only, never of the targets — so
// they share the forward solve and Σv². Only the mean's dot product with
// alpha is per GP. Each solve runs all the tile's points as interleaved
// lanes of one linalg.SolveLowerLanesInto call. A GP that shares nothing
// (other inputs, or a kernel outside the Matérn grid) is evaluated on its
// own within the same routine.
//
// It is safe to call concurrently on fitted GPs, allocates nothing, and
// deliberately carries no perfprof span: the acquisition search calls it
// ~10³ times per suggested point from several workers, where a per-call
// span would serialize them on the profiler mutex. The mobo.acq_* spans
// account for this time instead.
func PredictTile(gps []*GP, xs [][]float64, mean, variance []float64) {
	m, ng := len(xs), len(gps)
	if m < 1 || m > TileWidth {
		panic(fmt.Sprintf("gp: PredictTile of %d points, want 1..%d", m, TileWidth))
	}
	if len(mean) != m*ng || (variance != nil && len(variance) != m*ng) {
		panic(fmt.Sprintf("gp: PredictTile got %d means and %d variances for %d points × %d GPs", len(mean), len(variance), m, ng))
	}
	w := linalg.Lanes(m)
	sc := tilePool.Get().(*tileScratch)
	dist, col, fac := sc.leaders(gps)
	sc.ss = grow(sc.ss, ng*TileWidth)
	ss := sc.ss

	for a, ga := range gps {
		if dist[a] != a {
			continue
		}
		n := len(ga.x)
		sc.d2, sc.ks, sc.v = grow(sc.d2, n*w), grow(sc.ks, n*w), grow(sc.v, n*w)
		d2, ks, v := sc.d2, sc.ks, sc.v
		if ga.hasParams {
			for i, xi := range ga.x {
				row := d2[w*i : w*i+m]
				for k := range row {
					row[k] = sqDist(xi, xs[k])
				}
			}
		}
		for b := a; b < ng; b++ {
			if dist[b] != a || col[b] != b {
				continue
			}
			gps[b].kernelTile(ks, d2, xs, w)
			for c := b; c < ng; c++ {
				if col[c] != b {
					continue
				}
				gc := gps[c]
				// The mean's ks·alpha, in linalg.Dot's order, lane by lane.
				for k := 0; k < m; k++ {
					sum := 0.0
					for i, al := range gc.alpha {
						sum += ks[w*i+k] * al
					}
					mean[k*ng+c] = sum
				}
				if variance == nil || fac[c] != c {
					continue
				}
				linalg.SolveLowerLanesInto(gc.chol, w, ks, v)
				for k := 0; k < m; k++ {
					sum := 0.0
					for i := 0; i < n; i++ {
						sum += v[w*i+k] * v[w*i+k]
					}
					ss[c*TileWidth+k] = sum
				}
			}
		}
	}
	for j, g := range gps {
		for k, x := range xs {
			mean[k*ng+j] = mean[k*ng+j]*g.stdY + g.meanY
			if variance != nil {
				variance[k*ng+j] = g.scaledVariance(g.priorVariance(x) + g.noise - ss[fac[j]*TileWidth+k])
			}
		}
	}
	tilePool.Put(sc)
}

// scaledVariance clamps a standardized posterior variance away from zero and
// puts it on the original target scale.
func (g *GP) scaledVariance(varS float64) float64 {
	if varS < 1e-12 {
		varS = 1e-12
	}
	return varS * g.stdY * g.stdY
}

// MaxVariance returns the largest variance Predict can report at x: the
// prior variance k(x,x)+noise, from which the posterior only ever subtracts
// Σv² ≥ 0. Subtraction, the clamp and the scaling are each monotone in
// floating point, so Predict's variance at x is <= MaxVariance(x) exactly,
// not up to a tolerance — what lets the acquisition search bound a candidate
// from its posterior mean alone and solve only for those that can still win.
func (g *GP) MaxVariance(x []float64) float64 {
	return g.scaledVariance(g.priorVariance(x) + g.noise)
}

// priorVariance returns k(x, x). For a Matérn GP that is exactly its signal
// variance, read without evaluating the kernel: sqDist(x, x) is 0, so r and
// s are 0, the polynomial is 1 and Exp(-0) is 1.
func (g *GP) priorVariance(x []float64) float64 {
	if g.hasParams {
		return g.params.Variance
	}
	return g.kernel.Eval(x, x)
}

// leaders finds, for every GP, the lowest-indexed GP it can take the
// squared distances, the kernel column and the factor solve from (itself
// when there is none). Sharing nests: a column leader is in the same
// distance group, a factor leader in the same column group.
func (sc *tileScratch) leaders(gps []*GP) (dist, col, fac []int) {
	ng := len(gps)
	if cap(sc.lead) < 3*ng {
		sc.lead = make([]int, 3*ng)
	}
	dist, col, fac = sc.lead[:ng], sc.lead[ng:2*ng], sc.lead[2*ng:3*ng]
	for j, g := range gps {
		dist[j], col[j], fac[j] = j, j, j
		if !g.hasParams {
			continue
		}
		for i, h := range gps[:j] {
			if !h.hasParams || !sameInputs(g.x, h.x) {
				continue
			}
			if dist[j] == j {
				dist[j] = i
			}
			if h.params.Lengthscale != g.params.Lengthscale || h.params.Variance != g.params.Variance {
				continue
			}
			if col[j] == j {
				col[j] = i
			}
			if h.params.Noise == g.params.Noise && h.jitter == g.jitter {
				fac[j] = i
				break
			}
		}
	}
	return dist, col, fac
}

// kernelTile fills ks with the covariance between every training point and
// the tile's points, zeroing the lanes past the last point. A Matérn-grid
// GP reads the shared squared distances; any other kernel is evaluated
// directly.
func (g *GP) kernelTile(ks, d2 []float64, xs [][]float64, w int) {
	m := len(xs)
	for i := range g.x {
		row := ks[w*i : w*i+w]
		if g.hasParams {
			for k, d := range d2[w*i : w*i+m] {
				row[k] = matern52FromSq(d, g.params.Lengthscale, g.params.Variance)
			}
		} else {
			for k, x := range xs {
				row[k] = g.kernel.Eval(g.x[i], x)
			}
		}
		for k := m; k < w; k++ {
			row[k] = 0
		}
	}
}

// Predict returns the posterior mean and variance at x (on the original
// target scale): the one-GP, one-point case of PredictTile, with the same
// concurrency and allocation guarantees.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	gs, xs := [1]*GP{g}, [1][]float64{x}
	var m, v [1]float64
	PredictTile(gs[:], xs[:], m[:], v[:])
	return m[0], v[0]
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.x) }

// meanStd returns the mean and (guarded) standard deviation of v.
func meanStd(v []float64) (mean, std float64) {
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(v)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}
