package flightrec

import (
	"strings"
	"testing"
)

func runDataFor(hvs []float64, front [][]float64) *RunData {
	d := &RunData{Header: testHeader()}
	for i, hv := range hvs {
		it := Iteration{Iter: i + 1, Hypervolume: hv, Evals: 10 * (i + 1)}
		if i == len(hvs)-1 {
			it.Front = front
		}
		d.Iters = append(d.Iters, it)
	}
	return d
}

func TestDiffHVDeltas(t *testing.T) {
	a := runDataFor([]float64{0.1, 0.2, 0.3}, nil)
	b := runDataFor([]float64{0.1, 0.25, 0.35, 0.4}, nil)
	r := Diff(a, b)
	if len(r.HV) != 3 {
		t.Fatalf("%d shared iterations, want 3", len(r.HV))
	}
	if r.HV[1].Iter != 2 || r.HV[1].A != 0.2 || r.HV[1].B != 0.25 {
		t.Errorf("iter-2 delta = %+v", r.HV[1])
	}
	if d := r.HV[2].Delta; d < 0.049 || d > 0.051 {
		t.Errorf("iter-3 delta = %v, want ~0.05", d)
	}
	if r.ItersA != 3 || r.ItersB != 4 {
		t.Errorf("iteration counts %d/%d, want 3/4", r.ItersA, r.ItersB)
	}
	if r.EvalsA != 30 || r.EvalsB != 40 {
		t.Errorf("eval counts %d/%d, want 30/40", r.EvalsA, r.EvalsB)
	}
	if r.FinalHVA != 0.3 || r.FinalHVB != 0.4 {
		t.Errorf("final hv %v/%v, want 0.3/0.4", r.FinalHVA, r.FinalHVB)
	}
}

func TestDiffFrontGainsAndLosses(t *testing.T) {
	shared := []float64{1.5, 200, 3}
	a := runDataFor([]float64{0.1}, [][]float64{shared, {9, 9, 9}})
	// The shared point differs only by a sub-tolerance wiggle; it must match.
	wiggled := []float64{1.5 * (1 + 1e-9), 200, 3}
	b := runDataFor([]float64{0.1}, [][]float64{wiggled, {4, 4, 4}})
	r := Diff(a, b)
	if len(r.Gained) != 1 || r.Gained[0][0] != 4 {
		t.Errorf("Gained = %v, want [[4 4 4]]", r.Gained)
	}
	if len(r.Lost) != 1 || r.Lost[0][0] != 9 {
		t.Errorf("Lost = %v, want [[9 9 9]]", r.Lost)
	}
}

func TestRegressedGate(t *testing.T) {
	cases := []struct {
		hvA, hvB, tol float64
		want          bool
	}{
		{1.0, 1.0, 0, false},      // identical
		{1.0, 1.2, 0, false},      // improvement never regresses
		{1.0, 0.9, 0.05, true},    // 10% drop > 5% tolerance
		{1.0, 0.96, 0.05, false},  // 4% drop within tolerance
		{0.0, -0.01, 0.05, false}, // near-zero baseline: absolute scale floor
		{0.0, -0.2, 0.05, true},
	}
	for _, c := range cases {
		r := &DiffReport{FinalHVA: c.hvA, FinalHVB: c.hvB}
		if got := r.Regressed(c.tol); got != c.want {
			t.Errorf("Regressed(hvA=%v, hvB=%v, tol=%v) = %v, want %v",
				c.hvA, c.hvB, c.tol, got, c.want)
		}
	}
}

func TestDiffRender(t *testing.T) {
	a := runDataFor([]float64{0.1, 0.2}, [][]float64{{9, 9, 9}})
	b := runDataFor([]float64{0.1, 0.3}, [][]float64{{4, 4, 4}})
	out := Diff(a, b).Render()
	for _, want := range []string{
		"iterations: baseline 2, candidate 2",
		"1 gained, 1 lost",
		"+ (4, 4, 4)",
		"- (9, 9, 9)",
		"iter   2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
