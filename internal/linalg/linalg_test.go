package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnownMatrix(t *testing.T) {
	// A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
	a := New(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt(2)) > 1e-12 {
		t.Errorf("L = %+v", l)
	}
	if got, want := LogDetFromChol(l), math.Log(4*3-2*2); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, -1)
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPD) {
		t.Errorf("err = %v, want ErrNotPD", err)
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Error("accepted non-square matrix")
	}
}

// randomSPD builds AᵀA + I, which is symmetric positive definite.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	b := New(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += b.At(k, i) * b.At(k, j)
			}
			if i == j {
				sum += 1
			}
			a.Set(i, j, sum)
		}
	}
	return a
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// Check A ≈ L Lᵀ.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += l.At(i, k) * l.At(j, k)
				}
				if math.Abs(sum-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		CholeskySolveInto(l, b, x)
		// Residual ||Ax - b|| must be tiny.
		for i := range b {
			ax := 0.0
			for j, xj := range x {
				ax += a.At(i, j) * xj
			}
			if math.Abs(ax-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSolves(t *testing.T) {
	l := New(2, 2)
	l.Set(0, 0, 2)
	l.Set(1, 0, 1)
	l.Set(1, 1, 3)
	// L x = [4, 7]: x0 = 2, x1 = (7-2)/3.
	x := make([]float64, 2)
	SolveLowerInto(l, []float64{4, 7}, x)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-5.0/3) > 1e-12 {
		t.Errorf("SolveLowerInto = %v", x)
	}
	// Lᵀ y = [4, 6]: y1 = 2, y0 = (4-1*2)/2 = 1.
	y := make([]float64, 2)
	SolveLowerTInto(l, []float64{4, 6}, y)
	if math.Abs(y[1]-2) > 1e-12 || math.Abs(y[0]-1) > 1e-12 {
		t.Errorf("SolveLowerTInto = %v", y)
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"SolveLowerInto": func() {
			SolveLowerInto(New(2, 2), []float64{1}, make([]float64, 2))
		},
		"New": func() { New(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// naiveTryCholesky is the textbook row-by-row factorization the blocked
// implementation must match bit-for-bit. It mirrors the pre-blocking
// production code exactly.
func naiveTryCholesky(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, true
}

// naiveCholesky runs the same jitter ladder as Cholesky over the naive
// factorization.
func naiveCholesky(a *Matrix) (*Matrix, float64, error) {
	jitter := 0.0
	for {
		if l, ok := naiveTryCholesky(a, jitter); ok {
			return l, jitter, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		if jitter > 1e-3 {
			return nil, 0, ErrNotPD
		}
	}
}

// bitwiseSizes are the sizes the blocked factorization is held to the
// naive one at: every n mod 4 (the four-wide panel rows and trailing
// columns, and their leftovers) on both sides of each panel edge, the
// paper's training window and the kernel benchmark's size.
func bitwiseSizes() []int {
	var ns []int
	for _, r := range [][2]int{{1, 9}, {cholBlock - 2, cholBlock + 6}, {2*cholBlock - 2, 2*cholBlock + 6}} {
		for n := r[0]; n <= r[1]; n++ {
			ns = append(ns, n)
		}
	}
	return append(ns, 150, 256)
}

// TestBlockedMatchesNaiveBitwise asserts the blocked factorization equals
// the naive one exactly — not within a tolerance — on random SPD matrices
// of bitwiseSizes.
func TestBlockedMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range bitwiseSizes() {
		a := randomSPD(n, rng)
		got, gotJitter, err := CholeskyWithJitter(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, wantJitter, err := naiveCholesky(a)
		if err != nil {
			t.Fatalf("n=%d naive: %v", n, err)
		}
		if gotJitter != wantJitter {
			t.Fatalf("n=%d: jitter %g, naive %g", n, gotJitter, wantJitter)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: element %d = %v, naive %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestBlockedMatchesNaiveJitterPath drives the retry ladder with a
// singular PSD matrix (rank-deficient Gram matrix) and checks the blocked
// code lands on the same jitter and the same bits as the naive ladder, at
// the bitwiseSizes of at least two rows.
func TestBlockedMatchesNaiveJitterPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range bitwiseSizes() {
		if n < 2 {
			continue
		}
		// b is n×(n/2), so a = b·bᵀ has rank ≤ n/2 < n: PSD but singular.
		r := n / 2
		b := New(n, r)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < r; k++ {
					sum += b.At(i, k) * b.At(j, k)
				}
				a.Set(i, j, sum)
			}
		}
		got, gotJitter, err := CholeskyWithJitter(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if gotJitter == 0 {
			t.Fatalf("n=%d: expected the jitter ladder to engage", n)
		}
		want, wantJitter, err := naiveCholesky(a)
		if err != nil {
			t.Fatalf("n=%d naive: %v", n, err)
		}
		if gotJitter != wantJitter {
			t.Fatalf("n=%d: jitter %g, naive %g", n, gotJitter, wantJitter)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: element %d = %v, naive %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestCholeskyExtendBitIdentical grows a factor one row at a time and
// checks each step equals a from-scratch factorization of the bordered
// matrix, bit for bit.
func TestCholeskyExtendBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := randomSPD(90, rng)
	sub := func(n int) *Matrix {
		a := New(n, n)
		for i := 0; i < n; i++ {
			copy(a.Data[i*n:i*n+n], full.Data[i*full.Cols:i*full.Cols+n])
		}
		return a
	}
	l, jitter, err := CholeskyWithJitter(sub(10))
	if err != nil {
		t.Fatal(err)
	}
	for n := 10; n < 90; n++ {
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = full.At(n, i)
		}
		ext, err := CholeskyExtend(l, k, full.At(n, n), jitter)
		if err != nil {
			t.Fatalf("extend to %d: %v", n+1, err)
		}
		want := New(n+1, n+1)
		if err := CholeskyFixedInto(want, sub(n+1), jitter); err != nil {
			t.Fatalf("refactor at %d: %v", n+1, err)
		}
		for i := range want.Data {
			if ext.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: element %d = %v, refactor %v", n+1, i, ext.Data[i], want.Data[i])
			}
		}
		l = ext
	}
}

// TestBorderRowsMatchRefactor grows factors by several rows in one
// bordered matrix (Border, then CholeskyBorderRow row after row) and holds
// each to the factorization of the whole bordered matrix at the same
// jitter and to CholeskyExtend one row at a time, bit for bit, across panel
// edges and every n mod 4. A pivot that is not positive is ErrNotPD, and a
// row outside the matrix an error.
func TestBorderRowsMatchRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	full := randomSPD(140, rng)
	sub := func(n int) *Matrix {
		a := New(n, n)
		for i := 0; i < n; i++ {
			copy(a.Data[i*n:i*n+n], full.Data[i*full.Cols:i*full.Cols+n])
		}
		return a
	}
	for _, c := range []struct{ n, m int }{{1, 1}, {1, 8}, {5, 3}, {60, 9}, {62, 70}, {120, 17}} {
		for _, jitter := range []float64{0, 1e-6} {
			l := New(c.n, c.n)
			if err := CholeskyFixedInto(l, sub(c.n), jitter); err != nil {
				t.Fatal(err)
			}
			g, each := Border(l, c.m), l
			for r := c.n; r < c.n+c.m; r++ {
				k := full.Data[r*full.Cols : r*full.Cols+r]
				copy(g.Data[r*g.Cols:], k)
				if err := CholeskyBorderRow(g, r, full.At(r, r), jitter); err != nil {
					t.Fatalf("n=%d+%d: border row %d: %v", c.n, c.m, r, err)
				}
				var err error
				if each, err = CholeskyExtend(each, k, full.At(r, r), jitter); err != nil {
					t.Fatalf("n=%d+%d: extend to %d: %v", c.n, c.m, r+1, err)
				}
			}
			want := New(c.n+c.m, c.n+c.m)
			if err := CholeskyFixedInto(want, sub(c.n+c.m), jitter); err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if g.Data[i] != want.Data[i] || each.Data[i] != want.Data[i] {
					t.Fatalf("n=%d+%d, jitter %g: element %d bordered %v, extended %v, refactor %v",
						c.n, c.m, jitter, i, g.Data[i], each.Data[i], want.Data[i])
				}
			}
		}
	}
	g := Border(New(2, 2), 1)
	g.Data[0], g.Data[4] = 1, 1
	g.Data[6], g.Data[7] = 1, 1 // w = (1, 1), so the pivot is 1 − 2
	if err := CholeskyBorderRow(g, 2, 1, 0); !errors.Is(err, ErrNotPD) {
		t.Errorf("non-positive pivot: err = %v, want ErrNotPD", err)
	}
	if err := CholeskyBorderRow(g, 3, 1, 0); err == nil {
		t.Error("a row outside the matrix was bordered")
	}
}

// TestCholeskyUpdateProperty checks the rank-1 update against a refactored
// A + v·vᵀ within 1e-10 on random SPD matrices.
func TestCholeskyUpdateProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(n, rng)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		if err := CholeskyUpdate(l, v); err != nil {
			return false
		}
		// Compare against factoring A + v·vᵀ directly.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)+v[i]*v[j])
			}
		}
		want, err := Cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if math.Abs(l.At(i, j)-want.At(i, j)) > 1e-10*(1+math.Abs(want.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSolveIntoVariants checks the into-buffer solves match the allocating
// ones exactly, including when the output aliases the right-hand side.
func TestSolveIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 33
	a := randomSPD(n, rng)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Each aliased solve must write the bits of the same solve into a fresh
	// buffer.
	want := make([]float64, n)
	CholeskySolveInto(l, b, want)
	aliased := append([]float64(nil), b...)
	CholeskySolveInto(l, aliased, aliased)
	for i := range want {
		if aliased[i] != want[i] {
			t.Fatalf("aliased CholeskySolveInto[%d] = %v, want %v", i, aliased[i], want[i])
		}
	}

	fwdWant := make([]float64, n)
	SolveLowerInto(l, b, fwdWant)
	fwd := append([]float64(nil), b...)
	SolveLowerInto(l, fwd, fwd)
	for i := range fwdWant {
		if fwd[i] != fwdWant[i] {
			t.Fatalf("aliased SolveLowerInto[%d] = %v, want %v", i, fwd[i], fwdWant[i])
		}
	}
	bwdWant := make([]float64, n)
	SolveLowerTInto(l, b, bwdWant)
	bwd := append([]float64(nil), b...)
	SolveLowerTInto(l, bwd, bwd)
	for i := range bwdWant {
		if bwd[i] != bwdWant[i] {
			t.Fatalf("aliased SolveLowerTInto[%d] = %v, want %v", i, bwd[i], bwdWant[i])
		}
	}
}

// solveTextbook is forward substitution as the textbook writes it, one row
// at a time: the reference the four-row recurrence is held to.
func solveTextbook(l *Matrix, b []float64) []float64 {
	x := make([]float64, l.Rows)
	for i := range x {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// TestSolveLowerMatchesTextbook pins the forward solve, which takes its rows
// four at a time, to solveTextbook bit for bit: at sizes on every side of a
// multiple of four and of the factorization's panel width, into a fresh
// buffer and in place. Bad shapes panic.
//
// It was shown to catch a group's last row subtracting the terms of the
// group's rows above it out of column order (row 3 of n = 7 off in the last
// bit).
func TestSolveLowerMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64, 65, 150} {
		l, err := Cholesky(randomSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := solveTextbook(l, b)
		whole := make([]float64, n)
		SolveLowerInto(l, b, whole)
		aliased := append([]float64(nil), b...)
		SolveLowerInto(l, aliased, aliased)
		for i := range want {
			if whole[i] != want[i] || aliased[i] != want[i] {
				t.Fatalf("n=%d row %d: whole %v, aliased %v, textbook %v", n, i, whole[i], aliased[i], want[i])
			}
		}
	}
	for _, fn := range []func(){
		func() { SolveLowerInto(New(2, 2), make([]float64, 3), make([]float64, 2)) },
		func() { SolveLowerInto(New(2, 2), make([]float64, 2), make([]float64, 3)) },
		func() { SolveLowerInto(New(2, 2), make([]float64, 1), make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
