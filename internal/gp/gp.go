// Package gp implements Gaussian-process regression, the surrogate model of
// UNICO's multi-objective Bayesian optimization (paper Section 3.2).
//
// The regressor follows the textbook formulation (Rasmussen & Williams,
// Algorithm 2.1): targets are standardized, the kernel matrix is factored by
// Cholesky, and hyperparameters (a shared lengthscale, signal variance and
// noise) are selected by maximizing the log marginal likelihood over a small
// grid — robust and dependency-free, which is what a from-scratch surrogate
// wants. The kernel is Matérn-5/2, the usual BO choice: rougher than a
// squared exponential, a better fit for hardware cost surfaces with
// ceil-division kinks. It is the package's only kernel, so every GP is
// described by its Params.
//
// # One factor per distinct kernel matrix
//
// A Matérn factor chol(K(X; ℓ) + σ_n²·I), jitter ladder included, depends on
// the training inputs, the lengthscale and the noise — never on the
// targets. The optimizer fits one GP per objective on the same inputs, so
// the package computes every such factor once and lets the GPs share it:
//
//   - FitAutoAll fits several target vectors on one input set. It builds
//     the squared-distance matrix once, one kernel matrix per lengthscale in
//     the union of the targets' search windows, and one factor per
//     (lengthscale, noise) of that union; the per-lengthscale jobs run on
//     the caller's Fanout. Each target then scans its own window in grid
//     order with its own alpha and log marginal likelihood, so it selects
//     exactly what a fit of that target alone selects — same Params,
//     jitter, factor and alpha bits. FitAutoFrom (warm-started at a
//     previous optimum, ±1 lengthscale) and FitAuto (the full grid) are its
//     one-target cases.
//   - GPs on the same inputs at equal Params and jitter hold one factor
//     object. ExtendAll grows each distinct factor once per update: one
//     new matrix holds the old factor and a bordered row per new
//     observation, each O(n²) (linalg.Border, linalg.CholeskyBorderRow),
//     the distinct factors on the caller's Fanout; then it recomputes each
//     GP's alpha. Extend is its one-GP, one-point case. Sharing is judged
//     by value, so GPs rebuilt apart (FitWithParamsAll, a checkpoint
//     restore) extend exactly as often as GPs fitted together.
//
// Because the bordered extend is bit-identical to a from-scratch
// factorization at the same jitter (see internal/linalg), a GP grown by
// Extend equals one produced by FitWithParams on the full data with the same
// hyperparameters and pinned jitter, bit for bit — this is what keeps
// checkpoint/resume runs identical to uninterrupted ones while the optimizer
// extends surrogates incrementally. Params/Jitter expose the values a caller
// must persist to reproduce a fitted GP exactly. The cadence policy (when to
// warm-refit versus extend) lives in the caller (internal/mobo).
//
// # Tiled prediction
//
// PredictTile evaluates several GPs at up to TileWidth points in one call,
// and is the only exact prediction routine: Predict is its one-GP,
// one-point case. It computes the squared distances once per distinct input
// set, the kernel column once per distinct lengthscale and the forward solve
// once per distinct factor. Every (GP, point) result is bit-identical to
// evaluating that pair alone.
//
// Envelope bounds every mean from below and every variance from above
// without one exponential or solve — the variance from the nearest training
// input. internal/mobo computes the means only of candidates whose bounds
// can still win, and PredictTile's predicate, asked once per point after
// the means, lets it skip the O(n²) solve of a point whose exact means and
// envelope variances already lose. A skipped point costs nothing more; a
// solved one has the bits it has in any other tile.
//
// # Concurrency
//
// A fitted GP is immutable under the prediction routines (scratch space
// comes from a sync.Pool, not the receiver), so concurrent calls on one GP
// are safe — the acquisition worker pool in internal/mobo relies on this.
// Fits and extends must not race with them.
package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"unico/internal/linalg"
	"unico/internal/perfprof"
)

// matern52FromSq evaluates the Matérn-5/2 kernel, the package's one
// covariance function, from a squared distance:
// k = σ²·(1 + √5·r + 5r²/3)·exp(−√5·r) with r = d/ℓ. At d² = 0 it is σ²
// exactly (r and s are 0, the polynomial is 1 and Exp(−0) is 1), which is
// why the diagonal of every kernel matrix is written as the variance.
func matern52FromSq(d2, lengthscale, variance float64) float64 {
	r := math.Sqrt(d2) / lengthscale
	s := math.Sqrt(5) * r
	return variance * (1 + s + 5*r*r/3) * math.Exp(-s)
}

func sqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: dimension mismatch %d vs %d", len(x), len(y)))
	}
	y = y[:len(x)] // no bounds check in the loop
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

// Fanout runs fn(i) for every i in [0, n), possibly on several goroutines;
// fn writes only what index i owns. A nil Fanout runs the indices in order
// on the calling goroutine. internal/mobo passes its search worker pool.
type Fanout func(n int, fn func(i int))

func (f Fanout) run(n int, fn func(i int)) {
	if f == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f(n, fn)
}

// factor is the Cholesky factor of K(x; ℓ, σ²) + σ_n²·I at a pinned jitter,
// with the inputs and Params it was built from. It is a function of those
// alone, never of targets, so GPs on the same inputs at the same Params and
// jitter share one. A factor is never modified: an extend makes a new one.
type factor struct {
	params Params
	jitter float64
	x      [][]float64
	// xt is x dimension-major, xt[d·len(x)+i] = x[i][d], the layout the
	// envelope's distance pass streams; the factors on one input set share
	// one copy.
	xt   []float64
	chol *linalg.Matrix
	// diag[i] bounds M_ii = Σ_j L_ij² of the matrix M = L·Lᵀ the factor
	// represents from above (rowBound), and keep is 1 − the relative slack
	// of the envelope's variance bound (see varianceBound).
	diag []float64
	keep float64
}

// newFactor wraps a factor of the inputs x (dimension-major in xt) and
// derives what the envelope's variance bound reads from it.
func newFactor(p Params, jitter float64, x [][]float64, xt []float64, chol *linalg.Matrix) *factor {
	f := &factor{params: p, jitter: jitter, x: x, xt: xt, chol: chol, keep: keepFor(len(x))}
	f.diag = make([]float64, len(x))
	for i := range f.diag {
		f.diag[i] = rowBound(chol, i)
	}
	return f
}

// transposed returns the rows x dimension-major: out[d·len(x)+i] = x[i][d].
func transposed(x [][]float64) []float64 {
	n := len(x)
	out := make([]float64, n*len(x[0]))
	for i, row := range x {
		for d, v := range row {
			out[d*n+i] = v
		}
	}
	return out
}

// sameFactor reports whether two factors are the same matrix: the same
// object, or factors of the same input rows (sameInputs) at equal Params and
// jitter.
func sameFactor(a, b *factor) bool {
	return a == b || a.params == b.params && a.jitter == b.jitter && sameInputs(a.x, b.x)
}

// grow returns the factor bordered by the inputs xs at the pinned jitter,
// all in one new matrix (linalg.Border): row n+p is point p's kernel column
// against every row before it, the values buildMaternLower writes for the
// same rows, bordered against those rows (linalg.CholeskyBorderRow), so the
// result is a from-scratch factor's bits and each row is the one an extend
// by that point alone appends. Each point is one gp.extend span.
func (f *factor) grow(xs [][]float64) (*factor, error) {
	n := len(f.x)
	x := append(f.x[:n:n], xs...)
	chol := linalg.Border(f.chol, len(xs))
	diag := append(f.diag[:n:n], make([]float64, len(xs))...)
	d := f.params.Variance + f.params.Noise
	for r := n; r < len(x); r++ {
		sp := perfprof.Begin("gp.extend")
		row := chol.Data[r*chol.Cols : r*chol.Cols+r]
		for i, xi := range x[:r] {
			row[i] = matern52FromSq(sqDist(xi, x[r]), f.params.Lengthscale, f.params.Variance)
		}
		err := linalg.CholeskyBorderRow(chol, r, d, f.jitter)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("gp: %w", err)
		}
		diag[r] = rowBound(chol, r)
	}
	grown := *f
	grown.x, grown.xt, grown.chol, grown.diag = x, nil, chol, diag // ExtendAll transposes the final inputs once
	grown.keep = keepFor(len(x))
	return &grown, nil
}

// GP is a fitted Gaussian-process regressor: a (possibly shared) factor and
// its own standardized targets.
type GP struct {
	*factor
	rawY  []float64
	alpha []float64
	meanY float64
	stdY  float64
	// pos, neg and slack are what Envelope's means read (see splitAlpha).
	pos, neg []float64
	slack    float64
}

// ErrNoData reports a fit attempt with no training points.
var ErrNoData = errors.New("gp: no training data")

// checkData rejects an empty input set and target vectors of another length.
func checkData(x [][]float64, ys [][]float64) error {
	if len(x) == 0 {
		return ErrNoData
	}
	for _, y := range ys {
		if len(y) != len(x) {
			return fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
		}
	}
	return nil
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
	g.splitAlpha()
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
	return FitAutoFrom(x, y, nil)
}

// FitAutoFrom is FitAuto warm-started at a previous optimum: the grid
// search is restricted to the ±1 lengthscale neighborhood of prev (all
// noise levels are always searched — the noise grid is small). A nil prev,
// or one whose lengthscale is no longer on the grid, falls back to the
// full grid. The selection is deterministic either way. It is FitAutoAll's
// one-target case.
func FitAutoFrom(x [][]float64, y []float64, prev *Params) (*GP, error) {
	gps, err := FitAutoAll(x, [][]float64{y}, []*Params{prev}, nil)
	if err != nil {
		return nil, err
	}
	return gps[0], nil
}

// window returns the grid lengthscales [lo, hi) a fit warm-started at prev
// searches.
func window(prev *Params) (lo, hi int) {
	if prev != nil {
		for i, ls := range gridLengthscales {
			if ls == prev.Lengthscale {
				return max(i-1, 0), min(i+2, len(gridLengthscales))
			}
		}
	}
	return 0, len(gridLengthscales)
}

// target is one target vector of a grid fit: its standardization and the
// window of grid lengthscales it searches.
type target struct {
	ys        []float64 // standardized
	mean, std float64
	lo, hi    int // the grid lengthscales searched
}

// choice is one target's best candidate at one grid lengthscale (f nil when
// none factored or all scored -Inf or NaN).
type choice struct {
	f     *factor
	alpha []float64
	lml   float64
}

// FitAutoAll fits one GP per target vector ys[t] on the shared inputs x,
// warm-started at warm[t] (nil warm, or a nil entry, searches the full
// grid). GP t is exactly FitAutoFrom(x, ys[t], warm[t]) — Params, jitter,
// factor, alpha and log marginal likelihood, bit for bit — while each kernel
// matrix is built and factored once for all targets: one job per
// lengthscale in the union of the targets' windows, fanned out over fan.
// Targets that select the same candidate share its factor.
func FitAutoAll(x [][]float64, ys [][]float64, warm []*Params, fan Fanout) ([]*GP, error) {
	defer perfprof.Begin("gp.fit_auto").End()
	if err := checkData(x, ys); err != nil {
		return nil, err
	}
	if warm != nil && len(warm) != len(ys) {
		return nil, fmt.Errorf("gp: %d warm starts for %d targets", len(warm), len(ys))
	}
	tgs := make([]target, len(ys))
	union := make([]bool, len(gridLengthscales))
	for t, y := range ys {
		tg := &tgs[t]
		var prev *Params
		if warm != nil {
			prev = warm[t]
		}
		tg.lo, tg.hi = window(prev)
		for li := tg.lo; li < tg.hi; li++ {
			union[li] = true
		}
		tg.mean, tg.std = meanStd(y)
		tg.ys = make([]float64, len(y))
		for i, v := range y {
			tg.ys[i] = (v - tg.mean) / tg.std
		}
	}
	var jobs []int
	for li, used := range union {
		if used {
			jobs = append(jobs, li)
		}
	}
	d2, xt := sqDistLower(x), transposed(x)
	best := make([][]choice, len(gridLengthscales))
	sp := &spares{n: len(x)}
	fan.run(len(jobs), func(u int) {
		best[jobs[u]] = fitLengthscale(x, xt, d2, jobs[u], tgs, sp)
	})

	gps := make([]*GP, len(ys))
	for t := range tgs {
		tg := &tgs[t]
		// The target's own window in grid order, strictly better wins: the
		// order and tie-break of a fit of this target alone.
		var win *choice
		for li := tg.lo; li < tg.hi; li++ {
			if c := &best[li][t]; c.f != nil && (win == nil || c.lml > win.lml) {
				win = c
			}
		}
		if win == nil {
			return nil, fmt.Errorf("gp: all hyperparameter candidates failed to factor")
		}
		gps[t] = &GP{
			factor: win.f, alpha: win.alpha,
			rawY:  append([]float64(nil), ys[t]...),
			meanY: tg.mean, stdY: tg.std,
		}
		gps[t].splitAlpha()
	}
	return gps, nil
}

// spares is one FitAutoAll call's free list of n×n matrices: the jobs take
// their kernel matrices and candidate factors from it and give back the
// ones they are done with, so a fit allocates about as many matrices as it
// holds at once, not one per candidate. A matrix from the list has stale
// contents, which neither the kernel build (it writes the lower triangle,
// all a factorization reads) nor a factorization into it reads.
type spares struct {
	mu   sync.Mutex
	n    int
	free []*linalg.Matrix
}

func (s *spares) get() *linalg.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.free); k > 0 {
		m := s.free[k-1]
		s.free = s.free[:k-1]
		return m
	}
	return linalg.New(s.n, s.n)
}

func (s *spares) put(m *linalg.Matrix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, m)
}

// fitLengthscale is one job of FitAutoAll: the kernel matrix of grid
// lengthscale li, factored once per noise level, and for every target whose
// window holds li the best candidate by log marginal likelihood, noise
// levels in grid order, strictly better wins. Only the factors some target
// ends up holding are kept; the rest go back to sp.
func fitLengthscale(x [][]float64, xt []float64, d2 *linalg.Matrix, li int, tgs []target, sp *spares) []choice {
	n, ls := d2.Rows, gridLengthscales[li]
	best := make([]choice, len(tgs))
	alpha := make([][]float64, len(tgs)) // per-target solve scratch
	for t := range best {
		best[t].lml = math.Inf(-1)
	}
	held := func(f *factor) bool {
		for _, c := range best {
			if c.f == f {
				return true
			}
		}
		return false
	}
	k := sp.get()
	defer sp.put(k)
	buildMaternLower(k, d2, ls, 1, 0)
	w := make([]float64, n)
	var cand *linalg.Matrix
	for _, nz := range gridNoises {
		for i := 0; i < n; i++ {
			k.Data[i*n+i] = 1 + nz
		}
		if cand == nil {
			cand = sp.get()
		}
		jitter, err := linalg.CholeskyInto(cand, k)
		if err != nil {
			continue
		}
		var f *factor
		for t := range tgs {
			if li < tgs[t].lo || li >= tgs[t].hi {
				continue
			}
			if alpha[t] == nil {
				alpha[t] = make([]float64, n)
			}
			linalg.CholeskySolveInto(cand, tgs[t].ys, alpha[t])
			lml := lmlFromChol(cand, alpha[t], w)
			if !(lml > best[t].lml) {
				continue
			}
			if f == nil {
				f = newFactor(Params{Lengthscale: ls, Variance: 1, Noise: nz}, jitter, x, xt, cand)
			}
			prev := best[t]
			best[t], alpha[t] = choice{f: f, alpha: alpha[t], lml: lml}, prev.alpha
			if prev.f != nil && !held(prev.f) {
				sp.put(prev.f.chol)
			}
		}
		if f != nil {
			cand = nil
		}
	}
	if cand != nil {
		sp.put(cand)
	}
	return best
}

// FitWithParams trains a GP at exactly the given hyperparameters and
// diagonal jitter — no grid search, no jitter retry ladder. Checkpoint
// restores use it to rebuild a surrogate bit-identical to the one a live
// run held (whether that run produced it by grid search or grew it with
// Extend). It is FitWithParamsAll's one-target case.
func FitWithParams(x [][]float64, y []float64, p Params, jitter float64) (*GP, error) {
	gps, err := FitWithParamsAll(x, [][]float64{y}, []Params{p}, []float64{jitter})
	if err != nil {
		return nil, err
	}
	return gps[0], nil
}

// FitWithParamsAll rebuilds one GP per target vector ys[t] on the shared
// inputs x at exactly ps[t] and jitters[t]. Targets with equal Params and
// jitter get one factor, factored once: the sharing a grid fit or
// ExtendAll leaves them with.
func FitWithParamsAll(x [][]float64, ys [][]float64, ps []Params, jitters []float64) ([]*GP, error) {
	defer perfprof.Begin("gp.fit").End()
	if err := checkData(x, ys); err != nil {
		return nil, err
	}
	if len(ps) != len(ys) || len(jitters) != len(ys) {
		return nil, fmt.Errorf("gp: %d params and %d jitters for %d targets", len(ps), len(jitters), len(ys))
	}
	n := len(x)
	d2, xt := sqDistLower(x), transposed(x)
	var k *linalg.Matrix
	gps := make([]*GP, len(ys))
	for t, p := range ps {
		var f *factor
		for s := 0; s < t && f == nil; s++ {
			if ps[s] == p && jitters[s] == jitters[t] {
				f = gps[s].factor
			}
		}
		if f == nil {
			if k == nil {
				k = linalg.New(n, n)
			}
			buildMaternLower(k, d2, p.Lengthscale, p.Variance, p.Noise)
			chol := linalg.New(n, n)
			if err := linalg.CholeskyFixedInto(chol, k, jitters[t]); err != nil {
				return nil, fmt.Errorf("gp: %w", err)
			}
			f = newFactor(p, jitters[t], x, xt, chol)
		}
		gps[t] = &GP{factor: f, rawY: append([]float64(nil), ys[t]...)}
		gps[t].refreshTargets()
	}
	return gps, nil
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
// one bordered row (linalg.Border, linalg.CholeskyBorderRow) at the pinned
// jitter, targets are re-standardized and alpha is recomputed.
// Hyperparameters are not re-selected — the caller decides when drift
// warrants a refit (see LogMarginalLikelihood). The result is bit-identical to FitWithParams on
// the extended data at the same hyperparameters and jitter. On error the
// receiver is unchanged and the caller should fall back to a full refit.
// It is ExtendAll's one-GP, one-point case.
func (g *GP) Extend(xNew []float64, yNew float64) error {
	_, err := ExtendAll([]*GP{g}, [][]float64{xNew}, [][]float64{{yNew}}, nil)
	return err
}

// ExtendAll appends the observations xs to every GP of gps, GP j taking
// targets ys[j] (one per point): each GP ends exactly as a run of Extend
// calls would leave it, bit for bit. Each distinct factor among the GPs
// (sameFactor) grows once, by all the points into one new matrix (grow), the
// distinct factors fanned out over fan, and the GPs that held it hold the
// grown one; then each GP recomputes its alpha once. It returns the factor
// rows it bordered, one per distinct factor and point; on error, no change.
func ExtendAll(gps []*GP, xs [][]float64, ys [][]float64, fan Fanout) (int, error) {
	if len(ys) != len(gps) {
		return 0, fmt.Errorf("gp: %d target vectors for %d GPs", len(ys), len(gps))
	}
	for _, y := range ys {
		if len(y) != len(xs) {
			return 0, fmt.Errorf("gp: %d new inputs vs %d targets", len(xs), len(y))
		}
	}
	if len(xs) == 0 {
		return 0, nil
	}
	group := make([]int, len(gps))
	var facs []*factor
	for j, g := range gps {
		group[j] = len(facs)
		for s, f := range facs {
			if sameFactor(f, g.factor) {
				group[j] = s
				break
			}
		}
		if group[j] == len(facs) {
			facs = append(facs, g.factor)
		}
	}
	errs := make([]error, len(facs))
	fan.run(len(facs), func(s int) {
		if f, err := facs[s].grow(xs); err != nil {
			errs[s] = err
		} else {
			facs[s] = f
		}
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	// Every factor is a new one; those on one input set share its transpose.
	for s, f := range facs {
		for _, e := range facs[:s] {
			if sameInputs(e.x, f.x) {
				f.xt = e.xt
				break
			}
		}
		if f.xt == nil {
			f.xt = transposed(f.x)
		}
	}
	fan.run(len(gps), func(j int) {
		g := gps[j]
		g.factor = facs[group[j]]
		g.rawY = append(g.rawY, ys[j]...)
		g.refreshTargets()
	})
	return len(facs) * len(xs), nil
}

// Params reports the hyperparameters the GP was fitted with. Every GP has
// them, so the bool is always true.
func (g *GP) Params() (Params, bool) { return g.params, true }

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
// alpha, using w (length n) as scratch for Lᵀ·α. It reads L a row at a
// time: row j adds L_jk·α_j into w[k] for every k <= j, so each w[k] sums
// its terms in ascending j from 0, a column walk's order and bits, without
// striding a column.
func lmlFromChol(chol *linalg.Matrix, alpha, w []float64) float64 {
	n := chol.Rows
	clear(w[:n])
	for j, aj := range alpha[:n] {
		row := chol.Data[j*chol.Cols : j*chol.Cols+j+1]
		wj := w[:len(row)]
		for k, v := range row {
			wj[k] += v * aj
		}
	}
	quad := 0.0 // yᵀα = (L·w)ᵀα = wᵀ(Lᵀα) = wᵀw
	for _, v := range w {
		quad += v * v
	}
	return -0.5*quad - 0.5*linalg.LogDetFromChol(chol) - 0.5*float64(n)*math.Log(2*math.Pi)
}

// TileWidth is the most candidates one PredictTile call takes.
const TileWidth = 8

// tileScratch is the per-call working set of a tile, pooled so the hot path
// allocates nothing and concurrent calls never share buffers. d2 holds the
// squared distances of every point to one input set at a time, point after
// point, and near each point's nearest row of that set; cols holds the
// points' kernel columns, rows floats a point; v holds one forward solve; ss
// holds one point's Σv² per factor leader; lo and hi hold one point's kernel
// bounds for Envelope; lead holds the leader indices and row offsets of
// every GP.
type tileScratch struct {
	d2, cols, v, ss, lo, hi []float64
	near                    [TileWidth]int
	rows                    int
	lead                    []int
	// dist, col and fac are the leaders (see leaders); off[b] is the row of
	// a point's columns where column leader b's column starts.
	dist, col, fac, off []int
	// facs are the factors the layout above was found for (see prepare).
	facs []*factor
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
// It writes every mean first, then asks solve(k) once for each point k in
// turn. A point for which solve returns false is not solved: its variance
// entries keep what the caller put there. Every other point's variances are
// Predict's bits, whoever else the tile holds or skips. A nil solve solves
// every point. solve may read point k's means and variances and overwrite
// its means.
//
// The tile does each piece of work once per distinct input rather than once
// per (GP, point). GPs fitted on one training-input set (sameInputs) share
// the squared distances to it; those that also share a Matérn lengthscale
// and variance share the kernel column, built with matern52FromSq; those
// that also share noise and jitter share the Cholesky factor, so they share
// the forward solve and Σv². Only the mean's dot product with alpha is per
// GP, and four points' dot products run side by side, each still adding in
// ascending row order, so the bits are a lone point's. A GP that shares
// nothing is evaluated on its own within the same routine.
//
// It is safe to call concurrently on fitted GPs, allocates nothing, and
// deliberately carries no perfprof span: the acquisition search calls it
// ~10³ times per suggested point from several workers, where a per-call
// span would serialize them on the profiler mutex. The mobo.acq_* spans
// account for this time instead.
func PredictTile(gps []*GP, xs [][]float64, mean, variance []float64, solve func(k int) bool) {
	checkOut(len(gps), len(xs), mean, "means")
	checkOut(len(gps), len(xs), variance, "variances")
	sc := startTile(gps)
	sc.cols = grow(sc.cols, len(xs)*sc.rows)
	sc.means(gps, xs, mean)
	sc.variances(gps, len(xs), variance, solve)
	tilePool.Put(sc)
}

func checkOut(ng, m int, out []float64, what string) {
	if m < 1 || m > TileWidth {
		panic(fmt.Sprintf("gp: tile of %d points, want 1..%d", m, TileWidth))
	}
	if len(out) != m*ng {
		panic(fmt.Sprintf("gp: tile got %d %s for %d points × %d GPs", len(out), what, m, ng))
	}
}

// startTile takes pooled scratch prepared for gps.
func startTile(gps []*GP) *tileScratch {
	sc := tilePool.Get().(*tileScratch)
	sc.prepare(gps)
	return sc
}

// distances fills sc.d2 with the squared distances of every point of xs to
// the training inputs of g, point after point, sc.near[k] with the row
// nearest point k (the first of equals), and returns len(g.x). It streams
// the inputs dimension-major: into a zeroed row it adds (x_{i,d} − q_d)² for
// d = 0…dim−1, sqDist's squares added in sqDist's order, so every distance
// has sqDist's bits; the last dimension's pass tracks the nearest row.
func (sc *tileScratch) distances(g *GP, xs [][]float64) int {
	n, xt := len(g.x), g.xt
	sc.d2 = grow(sc.d2, n*len(xs))
	for k, q := range xs {
		if len(q)*n != len(xt) {
			panic(fmt.Sprintf("gp: dimension mismatch %d vs %d", len(xt)/n, len(q)))
		}
		d := sc.d2[k*n : (k+1)*n]
		clear(d)
		near, last := 0, len(q)-1
		for j, qj := range q {
			col := xt[j*n : (j+1)*n]
			d := d[:len(col)]
			if j < last {
				for i, v := range col {
					t := v - qj
					d[i] += t * t
				}
				continue
			}
			best := math.Inf(1)
			for i, v := range col {
				t := v - qj
				s := d[i] + t*t
				d[i] = s
				if s < best {
					best, near = s, i
				}
			}
		}
		sc.near[k] = near
	}
	return n
}

// means computes the distances, every distinct kernel column of point k into
// its stretch of sc.cols, and the means.
func (sc *tileScratch) means(gps []*GP, xs [][]float64, mean []float64) {
	ng, rows := len(gps), sc.rows
	for a, ga := range gps {
		if sc.dist[a] != a {
			continue
		}
		n := sc.distances(ga, xs)
		for b := a; b < ng; b++ {
			if sc.dist[b] != a || sc.col[b] != b {
				continue
			}
			off, p := sc.off[b], gps[b].params
			for k := range xs {
				col := sc.cols[k*rows+off : k*rows+off+n]
				for i, d := range sc.d2[k*n : (k+1)*n] {
					col[i] = matern52FromSq(d, p.Lengthscale, p.Variance)
				}
			}
			for c := b; c < ng; c++ {
				if sc.col[c] != b {
					continue
				}
				gc := gps[c]
				var dot [TileWidth]float64
				pointDots(sc.cols, rows, off, gc.alpha, dot[:len(xs)])
				for k := range xs {
					mean[k*ng+c] = dot[k]*gc.stdY + gc.meanY
				}
			}
		}
	}
}

// Envelope bounds what PredictTile writes for the same gps and xs, with no
// math.Exp, no square root and no solve: into mean a lower bound on every
// mean, <= its bits exactly, and into variance an upper bound on every
// variance, >= its bits exactly.
//
// The kernel is σ²·f(u), f(u) = (1+s+s²/3)·e^{−s}, s = √u, u = 5d²/ℓ²; in u,
// f falls with slope −(1+s)·e^{−s}/6 and curves up by e^{−s}/12, so on each
// step of envTable the chord bounds it from above and the next step's chord,
// extended, from below. For the mean, a training point's term takes the
// lower kernel bound where its alpha is positive and the upper one where it
// is negative, and the sum drops slack (splitAlpha). A GP whose alpha or
// signal variance is not finite bounds -Inf, so a caller pruning on the
// bound still computes its means. The variance is bounded from the point's
// nearest training input alone (varianceBound).
func Envelope(gps []*GP, xs [][]float64, mean, variance []float64) {
	checkOut(len(gps), len(xs), mean, "means")
	checkOut(len(gps), len(xs), variance, "variances")
	sc := startTile(gps)
	ng := len(gps)
	for a, ga := range gps {
		if sc.dist[a] != a {
			continue
		}
		n := sc.distances(ga, xs)
		sc.lo, sc.hi = grow(sc.lo, n), grow(sc.hi, n)
		for b := a; b < ng; b++ {
			if sc.dist[b] != a || sc.col[b] != b {
				continue
			}
			p := gps[b].params
			for k := range xs {
				envColumn(sc.d2[k*n:(k+1)*n], 5/(p.Lengthscale*p.Lengthscale)/envStep, sc.lo, sc.hi)
				near := sc.near[k]
				kLo := p.Variance * (sc.lo[near] - envKernelSlack)
				for c := b; c < ng; c++ {
					if gc := gps[c]; sc.col[c] == b {
						m := math.Inf(-1)
						if gc.slack < math.Inf(1) {
							m = (p.Variance*envDot(sc.lo, sc.hi, gc.pos, gc.neg)-gc.slack)*gc.stdY + gc.meanY
						}
						mean[k*ng+c] = m
						variance[k*ng+c] = gc.varianceBound(kLo, near)
					}
				}
			}
		}
	}
	tilePool.Put(sc)
}

// envTable holds f(j·envStep) for j <= envLast+1, then twice the last: 64
// KiB for every lengthscale. envStep is a power of two, so a point's step
// and its place in the step are exact.
const (
	envStep = 1.0 / 8
	envLast = 8189
)

var envTable = func() *[envLast + 3]float64 {
	t := new([envLast + 3]float64)
	for j := 0; j <= envLast+1; j++ {
		s := math.Sqrt(float64(j) * envStep)
		t[j] = (1 + s + s*s/3) * math.Exp(-s)
	}
	t[envLast+2] = 2 * t[envLast+1]
	return t
}()

// envColumn writes f's bounds lo[i] <= f(u) <= hi[i] at u = d2[i]·scale
// (in steps of envStep). Past the table u is held at envLast, where hi is
// f there, which bounds f beyond as f decreases, and lo is exactly 0 (the
// last entry is twice the one before).
func envColumn(d2 []float64, scale float64, lo, hi []float64) {
	t := envTable
	lo, hi = lo[:len(d2)], hi[:len(d2)]
	for i, d := range d2 {
		u := d * scale
		if !(u < envLast) {
			u = envLast
		}
		j := int(u)
		f := u - float64(j)
		a, b, c := t[j], t[j+1], t[j+2]
		hi[i] = a + (b-a)*f
		lo[i] = b + (c-b)*(f-1)
	}
}

// envDot returns Σ lo[i]·pos[i] + hi[i]·neg[i]: each side as four partial
// sums over every fourth term, added pairwise at the end, so eight add
// chains run side by side. The order only moves the bound within
// splitAlpha's slack, which holds for any order.
func envDot(lo, hi, pos, neg []float64) float64 {
	lo, hi, neg = lo[:len(pos)], hi[:len(pos)], neg[:len(pos)]
	var p0, p1, p2, p3, n0, n1, n2, n3 float64
	i := 0
	for ; i+3 < len(pos); i += 4 {
		p0 += lo[i] * pos[i]
		p1 += lo[i+1] * pos[i+1]
		p2 += lo[i+2] * pos[i+2]
		p3 += lo[i+3] * pos[i+3]
		n0 += hi[i] * neg[i]
		n1 += hi[i+1] * neg[i+1]
		n2 += hi[i+2] * neg[i+2]
		n3 += hi[i+3] * neg[i+3]
	}
	for ; i < len(pos); i++ {
		p0 += lo[i] * pos[i]
		n0 += hi[i] * neg[i]
	}
	return (p0 + p1) + (p2 + p3) + ((n0 + n1) + (n2 + n3))
}

// splitAlpha derives Envelope's view of alpha, once per fit or extend: its
// positive and negative parts, and slack = (8n+256)·2⁻⁵²·Σ|α|·σ². Each
// kernel value and table bound is within a few units of 2⁻⁵³·σ² of f's
// true value (envKernelSlack), and a floating-point sum of n terms, added
// in any order or grouping (envDot keeps partial sums), is within
// γ_n·Σ|terms| of its exact value, γ_n = n·2⁻⁵³/(1 − n·2⁻⁵³) (Higham,
// Accuracy and Stability of Numerical Algorithms, §4.2), about n units of
// 2⁻⁵³·Σ|α|·σ² here; so slack covers them with room to spare. A non-finite
// alpha or signal variance leaves slack +Inf or NaN: no bound.
func (g *GP) splitAlpha() {
	n := len(g.alpha)
	g.pos, g.neg = grow(g.pos, n), grow(g.neg, n)
	abs := 0.0
	for i, a := range g.alpha {
		g.pos[i], g.neg[i] = max(a, 0), min(a, 0)
		abs += math.Abs(a)
	}
	g.slack = math.Inf(1)
	if v := g.params.Variance; v > 0 && v < math.Inf(1) {
		g.slack = float64(8*n+256) * 0x1p-52 * abs * v
	}
}

// variances solves every point k of the tile that solve(k) lets through
// (every point when solve is nil): the forward solve of each distinct factor
// against the point's kernel column, Σv², and the variances
// scaledVariance(prior − Σv²). Each point's solves are its own, so its bits
// are the same whoever else is solved or skipped with it.
func (sc *tileScratch) variances(gps []*GP, m int, variance []float64, solve func(int) bool) {
	ng := len(gps)
	sc.ss = grow(sc.ss, ng)
	for k := 0; k < m; k++ {
		if solve != nil && !solve(k) {
			continue
		}
		cols := sc.cols[k*sc.rows : (k+1)*sc.rows]
		for c, g := range gps {
			if sc.fac[c] != c {
				continue
			}
			n, off := len(g.x), sc.off[sc.col[c]]
			sc.v = grow(sc.v, n)
			linalg.SolveLowerInto(g.chol, cols[off:off+n], sc.v)
			ss := 0.0
			for _, vi := range sc.v {
				ss += vi * vi
			}
			sc.ss[c] = ss
		}
		for j, g := range gps {
			variance[k*ng+j] = g.scaledVariance(g.priorVariance() - sc.ss[sc.fac[j]])
		}
	}
}

// pointDots writes Σᵢ cols[k·rows+off+i]·alpha[i] into out[k] for every
// point k. Four points at a time run as four accumulators in named locals,
// which the compiler keeps in registers: each adds its products in ascending
// i from 0, a textbook dot product's order, so the bits are a lone point's,
// while the add chains run side by side.
func pointDots(cols []float64, rows, off int, alpha []float64, out []float64) {
	n, k := len(alpha), 0
	col := func(k int) []float64 { return cols[k*rows+off : k*rows+off+n] }
	for ; k+3 < len(out); k += 4 {
		c0, c1, c2, c3 := col(k), col(k+1), col(k+2), col(k+3)
		var s0, s1, s2, s3 float64
		for i, a := range alpha {
			s0 += c0[i] * a
			s1 += c1[i] * a
			s2 += c2[i] * a
			s3 += c3[i] * a
		}
		out[k], out[k+1], out[k+2], out[k+3] = s0, s1, s2, s3
	}
	for ; k < len(out); k++ {
		c := col(k)
		s := 0.0
		for i, a := range alpha {
			s += c[i] * a
		}
		out[k] = s
	}
}

// scaledVariance clamps a standardized posterior variance away from zero and
// puts it on the original target scale.
func (g *GP) scaledVariance(varS float64) float64 {
	if varS < 1e-12 {
		varS = 1e-12
	}
	return varS * g.stdY * g.stdY
}

// envKernelSlack is what the envelope takes off a table bound before it
// bounds a kernel value computed in floating point: 256 units of 2⁻⁵², the
// per-kernel part of splitAlpha's slack. A computed kernel value σ²·f̂ and a
// table bound lo at the same squared distance are each within a few units
// of 2⁻⁵³ (times σ² for the kernel) of f's true value there, so
// σ²·f̂ >= σ²·(lo − envKernelSlack) with room for the product's rounding.
const envKernelSlack = 0x1p-44

// varianceBound returns an upper bound on the variance PredictTile writes
// for g at a point whose nearest training input is row i, where lo <= f at
// that row's squared distance (envColumn). PredictTile writes
// scaledVariance(prior − S), S the rounded Σv̂² of the forward solve
// L·v̂ = k̂ of the computed kernel column k̂. Subtraction, the clamp and the
// scaling are monotone in floating point, so any q <= S gives a bound
// scaledVariance(prior − q); q = 0 gives the prior variance, the bound
// where nothing better is known. Here q = k²/diag[i]·keep, with k the
// rounded σ²·(lo − envKernelSlack) <= k̂_i, and it is <= S whatever the
// matrix's conditioning, with u = 2⁻⁵³ and γ_m = m·u/(1−m·u):
//
//  1. Let M = L·Lᵀ, the matrix the stored factor represents. For any
//     symmetric positive definite M and row i, kᵀM⁻¹k >= k_i²/M_ii: by
//     Cauchy–Schwarz, (e_iᵀk)² = (M^{1/2}e_i · M^{−1/2}k)² <= M_ii·kᵀM⁻¹k.
//  2. Forward substitution is backward stable (Higham, Accuracy and
//     Stability of Numerical Algorithms, Thm 8.5): (L + ΔL)·v̂ = k̂ with
//     |ΔL| <= γ_n·|L| elementwise, in any order of each row's sum. So
//     Σv̂² = k̂ᵀM'⁻¹k̂ exactly for M' = (L+ΔL)(L+ΔL)ᵀ, which is positive
//     definite (the diagonal of L + ΔL is L's times 1 ± γ_n, not 0), and
//     M'_ii <= (1+γ_n)²·M_ii. By 1, Σv̂² >= k̂_i²/((1+γ_n)²·M_ii).
//  3. S adds n rounded squares, all >= 0, one at a time:
//     S >= (1−u)ⁿ·Σv̂² >= (1−γ_n)·Σv̂².
//  4. diag[i] >= M_ii (rowBound) and k̂_i >= k > 0 (envKernelSlack), and
//     q's three roundings (k², ÷ diag[i], × keep) raise it by at most
//     (1+u)³, so with keep = fl(1 − ε), ε = (4n+32)·2⁻⁵²,
//     q <= k̂_i²/M_ii·(1−ε)(1+u)⁴ <= k̂_i²/M_ii·(1−γ_n)/(1+γ_n)² <= S,
//     since (1−γ_n)/(1+γ_n)² >= 1 − 3n·u − O(n²u²) and ε is 8n+64 units
//     of u.
//  5. The analysis of 2 and 3 holds without underflow; gradual underflow
//     adds at most n·2⁻¹⁰⁷⁴ to a row of the solve's residual (times at
//     most √M_ii) and to S. q is taken only for k in [2⁻²⁰⁰, 2²⁰⁰], and
//     diag[i] lies in [2⁻⁵⁰⁰, 2⁵⁰⁰] or is +Inf (q = 0), so q >= 2⁻⁹⁰⁰ and
//     those terms are below 2⁻⁵⁰⁰ of k̂_i and of S for n < 2²⁰: inside
//     ε's room. Outside the range q is 0.
//
// Dropping the slack, reading hi for lo, or a diag[i] of σ² that leaves
// out the noise and the jitter each breaks the bound (FuzzEnvelopeBound).
func (g *GP) varianceBound(k float64, i int) float64 {
	q := 0.0
	if k >= 0x1p-200 && k <= 0x1p200 {
		q = k * k / g.diag[i] * g.keep
	}
	return g.scaledVariance(g.priorVariance() - q)
}

// keepFor is 1 − ε for a factor of n rows (varianceBound, step 4).
func keepFor(n int) float64 {
	return 1 - float64(4*n+32)*0x1p-52
}

// rowBound returns an upper bound on M_ii = Σ_j L_ij², row i of l: the
// rounded sum of i+1 squares is >= (1−u)^{i+1}·M_ii, so raising it by
// (i+5)·2⁻⁵² (covering that and the product's own rounding) bounds M_ii
// from above; below 2⁻⁵⁰⁰ it is 2⁻⁵⁰⁰ (which also covers underflow in the
// sum), and past 2⁵⁰⁰, or NaN, +Inf: no bound from this row.
func rowBound(l *linalg.Matrix, i int) float64 {
	s := 0.0
	for _, v := range l.Data[i*l.Cols : i*l.Cols+i+1] {
		s += v * v
	}
	d := s * (1 + float64(i+5)*0x1p-52)
	switch {
	case !(d <= 0x1p500):
		return math.Inf(1)
	case d < 0x1p-500:
		return 0x1p-500
	}
	return d
}

// priorVariance returns k(x, x) + σ_n², the same at every x: k(x, x) is the
// signal variance exactly (see matern52FromSq).
func (g *GP) priorVariance() float64 {
	return g.params.Variance + g.params.Noise
}

// prepare finds the leaders of gps and lays out their columns: sc.rows is
// how many rows (training points) the tile's distinct columns hold. The
// layout is a function of the GPs' factors (their inputs, Params and
// jitter), which never change, so a scratch whose last layout was for the
// same factors keeps it.
func (sc *tileScratch) prepare(gps []*GP) {
	if sc.sameFactors(gps) {
		return
	}
	ng := len(gps)
	sc.dist, sc.col, sc.fac = sc.leaders(gps)
	sc.off = sc.lead[3*ng : 4*ng]
	sc.facs = sc.facs[:0]
	rows := 0
	for b, g := range gps {
		sc.facs = append(sc.facs, g.factor)
		if sc.col[b] == b {
			sc.off[b] = rows
			rows += len(g.x)
		}
	}
	sc.rows = rows
}

// sameFactors reports whether gps hold, in order, the factors of the
// scratch's last layout.
func (sc *tileScratch) sameFactors(gps []*GP) bool {
	if len(gps) != len(sc.facs) {
		return false
	}
	for j, g := range gps {
		if g.factor != sc.facs[j] {
			return false
		}
	}
	return true
}

// leaders finds, for every GP, the lowest-indexed GP it can take the
// squared distances, the kernel column and the factor solve from (itself
// when there is none). Sharing nests: a column leader is in the same
// distance group, a factor leader in the same column group.
func (sc *tileScratch) leaders(gps []*GP) (dist, col, fac []int) {
	ng := len(gps)
	if cap(sc.lead) < 4*ng {
		sc.lead = make([]int, 4*ng)
	}
	sc.lead = sc.lead[:4*ng]
	dist, col, fac = sc.lead[:ng], sc.lead[ng:2*ng], sc.lead[2*ng:3*ng]
	for j, g := range gps {
		dist[j], col[j], fac[j] = j, j, j
		for i, h := range gps[:j] {
			if !sameInputs(g.x, h.x) {
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

// Predict returns the posterior mean and variance at x (on the original
// target scale): the one-GP, one-point case of PredictTile, with the same
// concurrency and allocation guarantees.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	gs, xs := [1]*GP{g}, [1][]float64{x}
	var m, v [1]float64
	PredictTile(gs[:], xs[:], m[:], v[:], nil)
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
