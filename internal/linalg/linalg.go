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
// update streams through memory instead of striding columns. Both steps
// compute four elements side by side — four rows of a panel column, four
// columns of a trailing row — each in its own accumulator.
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
// CholeskyBorderRow appends one row/column to a factor in O(n²) via the
// bordered scheme: the new off-diagonal row w solves L·w = k (forward
// substitution, the same recurrence the full factorization would run for
// that row), and the new diagonal is sqrt(d − Σ w²). It works in place, so
// a factor grows by m rows in one matrix: Border allocates and copies once,
// and each row borders against the ones before it. CholeskyExtend is the
// one-row case. CholeskyUpdate applies the classic O(n²) rank-1 update
// (A → A + v·vᵀ) by sweeping Givens-like column rotations through the
// factor.
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
//
// Both steps run four independent elements side by side: the panel step
// takes four rows of one column at a time (they share the column's pivot
// row), the trailing update four columns of one row (they share the row's
// panel stretch). Each element keeps its single accumulator, so the chains
// run at the floating-point units' throughput instead of one chain's
// latency, with the textbook's bits (at n = 150, one CPU: 0.71–0.85 ms per
// factorization an element at a time, 0.33–0.38 ms four at a time).
func factorLower(l *Matrix) bool {
	n := l.Rows
	for j0 := 0; j0 < n; j0 += cholBlock {
		j1 := min(j0+cholBlock, n)
		// Factor the panel: columns j0..j1-1 over rows j..n-1. At this
		// point every element already had columns k < j0 subtracted by the
		// trailing updates of earlier panels.
		for j := j0; j < j1; j++ {
			// w is how many of row j's panel columns lie left of the
			// diagonal; every stretch below is sliced to it, so the inner
			// loops carry no bounds checks.
			w := j - j0
			pj := l.Data[j*n+j0 : j*n+j+1][:w]
			s := l.Data[j*n+j]
			for _, v := range pj {
				s -= v * v
			}
			if s <= 0 || math.IsNaN(s) {
				return false
			}
			d := math.Sqrt(s)
			l.Data[j*n+j] = d
			i := j + 1
			for ; i+3 < n; i += 4 {
				a := l.Data[i*n+j0 : i*n+j+1]
				b := l.Data[(i+1)*n+j0 : (i+1)*n+j+1]
				c := l.Data[(i+2)*n+j0 : (i+2)*n+j+1]
				e := l.Data[(i+3)*n+j0 : (i+3)*n+j+1]
				sa, sb, sc, se := a[w], b[w], c[w], e[w]
				a0, b0, c0, e0 := a[:w], b[:w], c[:w], e[:w]
				for k, v := range pj {
					sa -= a0[k] * v
					sb -= b0[k] * v
					sc -= c0[k] * v
					se -= e0[k] * v
				}
				a[w], b[w], c[w], e[w] = sa/d, sb/d, sc/d, se/d
			}
			for ; i < n; i++ {
				a := l.Data[i*n+j0 : i*n+j+1]
				s, a0 := a[w], a[:w]
				for k, v := range pj {
					s -= a0[k] * v
				}
				a[w] = s / d
			}
		}
		// Trailing update: subtract this panel's contribution from the
		// remaining lower triangle, rows streaming contiguously.
		w := j1 - j0
		for i := j1; i < n; i++ {
			pi := l.Data[i*n+j0 : i*n+j1][:w]
			row := l.Data[i*n : i*n+i+1]
			j := j1
			for ; j+3 <= i; j += 4 {
				a := l.Data[j*n+j0 : j*n+j1][:w]
				b := l.Data[(j+1)*n+j0 : (j+1)*n+j1][:w]
				c := l.Data[(j+2)*n+j0 : (j+2)*n+j1][:w]
				e := l.Data[(j+3)*n+j0 : (j+3)*n+j1][:w]
				sa, sb, sc, se := row[j], row[j+1], row[j+2], row[j+3]
				for k, v := range pi {
					sa -= v * a[k]
					sb -= v * b[k]
					sc -= v * c[k]
					se -= v * e[k]
				}
				row[j], row[j+1], row[j+2], row[j+3] = sa, sb, sc, se
			}
			for ; j <= i; j++ {
				a := l.Data[j*n+j0 : j*n+j1][:w]
				s := row[j]
				for k, v := range pi {
					s -= v * a[k]
				}
				row[j] = s
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
// to d exactly as a full factorization would). It is the one-row case of
// Border and CholeskyBorderRow, so the extended factor is bit-identical to
// refactorizing the full bordered matrix at the same jitter. Returns
// ErrNotPD when the new pivot is not positive; l is never modified.
func CholeskyExtend(l *Matrix, k []float64, d, jitter float64) (*Matrix, error) {
	n := l.Rows
	if len(k) != n {
		return nil, fmt.Errorf("linalg: CholeskyExtend got %d column entries, want %d", len(k), n)
	}
	out := Border(l, 1)
	copy(out.Data[n*(n+1):], k)
	if err := CholeskyBorderRow(out, n, d, jitter); err != nil {
		return nil, err
	}
	return out, nil
}

// Border returns the (n+m)×(n+m) matrix that holds the n×n matrix l in its
// leading block and zeros elsewhere: one allocation and one copy, however
// many rows CholeskyBorderRow then factors into it.
func Border(l *Matrix, m int) *Matrix {
	n := l.Rows
	out := New(n+m, n+m)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+m):i*(n+m)+n], l.Data[i*l.Cols:i*l.Cols+n])
	}
	return out
}

// CholeskyBorderRow factors row r of the square matrix m in place, given the
// factor of the bordered matrix's leading r×r block in m's leading rows: on
// entry the row's first r entries hold the new covariance column k, and on
// return they hold w, the solution of L·w = k, and the diagonal holds
// sqrt(d + jitter − Σ w²). That is operation-for-operation what a
// from-scratch factorization at the same jitter computes for row r (the
// forward solve is the factorization's recurrence), so rows bordered one
// after another, each against the rows before it, have a full
// factorization's bits. Returns ErrNotPD when the new pivot is not
// positive, leaving the row unspecified.
func CholeskyBorderRow(m *Matrix, r int, d, jitter float64) error {
	if m.Rows != m.Cols || r < 0 || r >= m.Rows {
		return fmt.Errorf("linalg: CholeskyBorderRow of row %d in a %dx%d matrix", r, m.Rows, m.Cols)
	}
	w := m.Data[r*m.Cols : r*m.Cols+r]
	lead := Matrix{Rows: r, Cols: m.Cols, Data: m.Data}
	SolveLowerInto(&lead, w, w)
	s := d + jitter
	for _, v := range w {
		s -= v * v
	}
	if s <= 0 || math.IsNaN(s) {
		return ErrNotPD
	}
	m.Data[r*m.Cols+r] = math.Sqrt(s)
	return nil
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
// the factorization's order, and CholeskyBorderRow relies on it for
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
