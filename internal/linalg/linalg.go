// Package linalg provides the small dense linear-algebra kernel the Gaussian
// process surrogate needs: symmetric positive-definite factorizations and
// solves via Cholesky decomposition. Implemented from scratch on the
// standard library only.
//
// # Blocked factorization
//
// Cholesky uses a right-looking blocked (panel) algorithm: columns are
// processed in panels of cholBlock columns. Each panel is factored with the
// classic row-oriented recurrence, then the remaining lower triangle is
// updated by subtracting the panel's contribution with contiguous row-slice
// inner loops. All inner loops walk contiguous row segments, so the working
// set per step is a few panel rows (cholBlock·8 bytes each) and the trailing
// update streams through memory instead of striding columns.
//
// The blocking is arranged to be *bit-identical* to the textbook naive
// factorization: every element accumulates its subtractions s -= L[i][k]·L[j][k]
// one product at a time in ascending k (panels are visited in ascending
// order and each panel's ks are ascending), the diagonal adds jitter before
// any subtraction, and the off-diagonal divides by the diagonal entry. This
// invariant is what lets CholeskyExtend (below) and the GP's incremental
// updates stay bit-identical to a from-scratch refit, which the repo's
// kill/resume and serial-vs-parallel determinism contracts rely on. The
// equivalence is asserted exactly (==, not a tolerance) in the package tests.
//
// # Incremental updates
//
// CholeskyExtend appends one row/column to a factor in O(n²) via the
// bordered scheme: the new off-diagonal row w solves L·w = k (forward
// substitution, the same recurrence the full factorization would run for
// that row), and the new diagonal is sqrt(d − Σ w²). CholeskyUpdate applies
// the classic O(n²) rank-1 update (A → A + v·vᵀ) by sweeping Givens-like
// column rotations through the factor.
//
// # Allocation-free solves
//
// SolveLowerInto, SolveLowerTInto and CholeskySolveInto are the
// solve-into-buffer variants used on hot paths; the rhs and solution buffers
// may alias.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"unico/internal/perfprof"
)

// ErrNotPD reports a matrix that is not (numerically) positive definite.
var ErrNotPD = errors.New("linalg: matrix not positive definite")

// cholBlock is the panel width of the blocked factorization. 64 columns
// keep a panel row at 512 bytes, so the handful of rows live in an inner
// loop touches stay L1-resident while the trailing update streams.
const cholBlock = 64

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero r×c matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// matrix A. A small diagonal jitter is added progressively (up to jitterMax)
// if the factorization fails, the standard GP numerical safeguard. The input
// is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	l, _, err := CholeskyWithJitter(a)
	return l, err
}

// CholeskyWithJitter is Cholesky, additionally reporting the diagonal
// jitter the retry ladder settled on (0 when none was needed). Callers that
// must reproduce the factor exactly later — the GP's incremental extends
// and checkpoint-restore paths — pin this value via CholeskyFixedInto.
func CholeskyWithJitter(a *Matrix) (*Matrix, float64, error) {
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	l := New(a.Rows, a.Cols)
	jitter, err := CholeskyInto(l, a)
	if err != nil {
		return nil, 0, err
	}
	return l, jitter, nil
}

// CholeskyInto factors a into dst (which must be the same shape), running
// the jitter retry ladder, and reports the jitter used. dst's prior
// contents are ignored; on error its contents are unspecified.
func CholeskyInto(dst, a *Matrix) (float64, error) {
	defer perfprof.Begin("linalg.cholesky").End()
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		return 0, fmt.Errorf("linalg: CholeskyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols)
	}
	const jitterMax = 1e-3
	jitter := 0.0
	for {
		copyLowerJittered(dst, a, jitter)
		if factorLower(dst) {
			return jitter, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		if jitter > jitterMax {
			return 0, ErrNotPD
		}
	}
}

// CholeskyFixedInto factors a into dst with exactly the given diagonal
// jitter — no retry ladder. It returns ErrNotPD if the factorization fails
// at that jitter. Restore paths use it to rebuild a factor bit-identical to
// the one a live run produced.
func CholeskyFixedInto(dst, a *Matrix, jitter float64) error {
	defer perfprof.Begin("linalg.cholesky").End()
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		return fmt.Errorf("linalg: CholeskyFixedInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols)
	}
	copyLowerJittered(dst, a, jitter)
	if !factorLower(dst) {
		return ErrNotPD
	}
	return nil
}

// copyLowerJittered loads a's lower triangle plus diagonal jitter into dst
// and zeroes dst's strict upper triangle.
func copyLowerJittered(dst, a *Matrix, jitter float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		src := a.Data[i*n : i*n+n]
		row := dst.Data[i*n : i*n+n]
		copy(row[:i+1], src[:i+1])
		row[i] = src[i] + jitter
		for j := i + 1; j < n; j++ {
			row[j] = 0
		}
	}
}

// factorLower factors the lower triangle of l in place with the blocked
// right-looking algorithm. It reports false when a pivot is non-positive or
// NaN. The accumulation order per element is exactly the naive
// factorization's (ascending k, one product at a time), so the result is
// bit-identical to the textbook algorithm.
func factorLower(l *Matrix) bool {
	n := l.Rows
	for j0 := 0; j0 < n; j0 += cholBlock {
		j1 := j0 + cholBlock
		if j1 > n {
			j1 = n
		}
		// Factor the panel: columns j0..j1-1 over rows j..n-1. At this
		// point every element already had columns k < j0 subtracted by the
		// trailing updates of earlier panels.
		for j := j0; j < j1; j++ {
			lj := l.Data[j*n : j*n+j1]
			s := lj[j]
			for k := j0; k < j; k++ {
				s -= lj[k] * lj[k]
			}
			if s <= 0 || math.IsNaN(s) {
				return false
			}
			d := math.Sqrt(s)
			lj[j] = d
			for i := j + 1; i < n; i++ {
				li := l.Data[i*n : i*n+j1]
				s := li[j]
				for k := j0; k < j; k++ {
					s -= li[k] * lj[k]
				}
				li[j] = s / d
			}
		}
		// Trailing update: subtract this panel's contribution from the
		// remaining lower triangle, rows streaming contiguously.
		for i := j1; i < n; i++ {
			li := l.Data[i*n : i*n+n]
			for j := j1; j <= i; j++ {
				lj := l.Data[j*n : j*n+j1]
				s := li[j]
				for k := j0; k < j1; k++ {
					s -= li[k] * lj[k]
				}
				li[j] = s
			}
		}
	}
	return true
}

// CholeskyExtend returns the (n+1)×(n+1) factor of the bordered matrix
//
//	[ A   k ]
//	[ kᵀ  d ]
//
// given the n×n factor l of A, the new covariance column k, the new raw
// diagonal d, and the jitter the existing factor was produced with (added
// to d exactly as a full factorization would). The new row solves L·w = k
// and the new pivot is d + jitter − Σ w², which is operation-for-operation
// what a from-scratch factorization computes for its last row — so the
// extended factor is bit-identical to refactorizing the full bordered
// matrix at the same jitter. Returns ErrNotPD when the new pivot is not
// positive; l is never modified.
func CholeskyExtend(l *Matrix, k []float64, d, jitter float64) (*Matrix, error) {
	n := l.Rows
	if len(k) != n {
		return nil, fmt.Errorf("linalg: CholeskyExtend got %d column entries, want %d", len(k), n)
	}
	out := New(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+1):i*(n+1)+n], l.Data[i*n:i*n+n])
	}
	w := out.Data[n*(n+1) : n*(n+1)+n]
	SolveLowerInto(l, k, w)
	s := d + jitter
	for i := 0; i < n; i++ {
		s -= w[i] * w[i]
	}
	if s <= 0 || math.IsNaN(s) {
		return nil, ErrNotPD
	}
	out.Data[n*(n+1)+n] = math.Sqrt(s)
	return out, nil
}

// CholeskyUpdate replaces l in place with the factor of A + v·vᵀ, given
// the factor l of A, in O(n²): the standard sweep of Givens-like rotations
// that chases v through the columns. v is not modified. The update of an
// SPD matrix by +v·vᵀ is always SPD, so failure indicates a non-finite
// input and is reported as ErrNotPD.
func CholeskyUpdate(l *Matrix, v []float64) error {
	n := l.Rows
	if len(v) != n {
		return fmt.Errorf("linalg: CholeskyUpdate got %d entries, want %d", len(v), n)
	}
	w := make([]float64, n)
	copy(w, v)
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+n]
		d := lj[j]
		r := math.Sqrt(d*d + w[j]*w[j])
		if r <= 0 || math.IsNaN(r) {
			return ErrNotPD
		}
		c := r / d
		s := w[j] / d
		lj[j] = r
		for i := j + 1; i < n; i++ {
			li := l.Data[i*n : i*n+n]
			li[j] = (li[j] + s*w[i]) / c
			w[i] = c*w[i] - s*li[j]
		}
	}
	return nil
}

// SolveLowerInto solves L·x = b into x, which must have length n and may
// alias b. Every row runs the textbook recurrence — subtract row[k]·x[k] one
// product at a time in ascending k, then divide by the diagonal — which is
// the factorization's order, and CholeskyExtend relies on it for
// bit-identity. It takes the rows four at a time: their sums over the
// columns solved before the group are four independent subtract chains, then
// each row subtracts the terms of the group's rows above it, still in
// ascending k. So the bits are the textbook's while four chains run at the
// floating-point units' throughput instead of one chain's latency (at
// n = 150, one CPU: 11.2 µs per solve a row at a time, 5.4 µs four rows at a
// time).
func SolveLowerInto(l *Matrix, b, x []float64) {
	n := l.Rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveLowerInto got %d rhs and %d out entries, want %d", len(b), len(x), n))
	}
	c, i := l.Cols, 0
	for ; i+3 < n; i += 4 {
		ra := l.Data[i*c : i*c+i+1]
		rb := l.Data[(i+1)*c : (i+1)*c+i+2]
		rc := l.Data[(i+2)*c : (i+2)*c+i+3]
		rd := l.Data[(i+3)*c : (i+3)*c+i+4]
		sa, sb, sc, sd := b[i], b[i+1], b[i+2], b[i+3]
		ra0, rb0, rc0, rd0 := ra[:i], rb[:i], rc[:i], rd[:i]
		for k, xk := range x[:i] {
			sa -= ra0[k] * xk
			sb -= rb0[k] * xk
			sc -= rc0[k] * xk
			sd -= rd0[k] * xk
		}
		xa := sa / ra[i]
		sb -= rb[i] * xa
		sc -= rc[i] * xa
		sd -= rd[i] * xa
		xb := sb / rb[i+1]
		sc -= rc[i+1] * xb
		sd -= rd[i+1] * xb
		xc := sc / rc[i+2]
		sd -= rd[i+2] * xc
		x[i], x[i+1], x[i+2], x[i+3] = xa, xb, xc, sd/rd[i+3]
	}
	for ; i < n; i++ {
		row := l.Data[i*c : i*c+i+1]
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum / row[i]
	}
}

// SolveLowerTInto solves Lᵀ·x = b into x, which must have length n and may
// alias b. The loop is the row-oriented ("saxpy") form of back substitution
// so the inner loop walks a contiguous row of L instead of striding a
// column.
func SolveLowerTInto(l *Matrix, b, x []float64) {
	n := l.Rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveLowerTInto got %d rhs and %d out entries, want %d", len(b), len(x), n))
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	for j := n - 1; j >= 0; j-- {
		row := l.Data[j*l.Cols : j*l.Cols+j+1]
		xj := x[j] / row[j]
		x[j] = xj
		for i := 0; i < j; i++ {
			x[i] -= row[i] * xj
		}
	}
}

// CholeskySolveInto solves A·x = b into x given the Cholesky factor L of A;
// x may alias b. No intermediate buffer is needed: the forward solve lands
// in x and the transposed solve runs in place.
func CholeskySolveInto(l *Matrix, b, x []float64) {
	SolveLowerInto(l, b, x)
	SolveLowerTInto(l, x, x)
}

// LogDetFromChol returns log|A| = 2·Σ log L_ii given the Cholesky factor L.
func LogDetFromChol(l *Matrix) float64 {
	sum := 0.0
	for i := 0; i < l.Rows; i++ {
		sum += math.Log(l.At(i, i))
	}
	return 2 * sum
}
