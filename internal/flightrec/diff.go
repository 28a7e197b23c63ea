package flightrec

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// IterDelta compares one iteration present in both runs (matched by
// iteration number).
type IterDelta struct {
	Iter int
	// A and B are the baseline and candidate hypervolume at this iteration;
	// Delta is B-A (positive = candidate ahead).
	A, B, Delta float64
}

// DiffReport is the comparison of a candidate run (B) against a baseline
// run (A): per-iteration hypervolume deltas, final-front membership changes,
// and evaluation-cost movement — the payload behind `unicoreport -diff`.
type DiffReport struct {
	// HV holds one entry per iteration number present in both runs, ordered.
	HV []IterDelta
	// FinalHVA/FinalHVB are the hypervolumes of each run's last iteration.
	FinalHVA, FinalHVB float64
	// Gained holds final-front points of B with no tolerance-match in A's
	// final front; Lost the reverse.
	Gained, Lost [][]float64
	// EvalsA/EvalsB are the total mapping evaluations of each run.
	EvalsA, EvalsB int
	// ItersA/ItersB are the iteration counts.
	ItersA, ItersB int
}

// finalStats extracts a run's closing hypervolume, evals, iteration count,
// and front from its last iteration.
func finalStats(d *RunData) (hv float64, evals, iters int, front [][]float64) {
	if n := len(d.Iters); n > 0 {
		last := d.Iters[n-1]
		hv, evals, iters, front = last.Hypervolume, last.Evals, last.Iter, last.Front
	}
	return hv, evals, iters, front
}

// matchTol is the relative tolerance for front-point matching in Diff: two
// PPA points are "the same design point" when every objective agrees within
// this fraction (absolute floor for near-zero objectives).
const matchTol = 1e-6

// pointsMatch reports whether two objective vectors agree within matchTol.
func pointsMatch(p, q []float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		tol := matchTol * math.Max(math.Abs(p[i]), math.Abs(q[i]))
		if tol < matchTol {
			tol = matchTol
		}
		if math.Abs(p[i]-q[i]) > tol {
			return false
		}
	}
	return true
}

// Diff compares candidate run b against baseline run a.
func Diff(a, b *RunData) *DiffReport {
	r := &DiffReport{}
	var frontA, frontB [][]float64
	r.FinalHVA, r.EvalsA, r.ItersA, frontA = finalStats(a)
	r.FinalHVB, r.EvalsB, r.ItersB, frontB = finalStats(b)

	byIter := make(map[int]float64, len(a.Iters))
	for _, it := range a.Iters {
		byIter[it.Iter] = it.Hypervolume
	}
	for _, it := range b.Iters {
		if hvA, ok := byIter[it.Iter]; ok {
			r.HV = append(r.HV, IterDelta{
				Iter: it.Iter, A: hvA, B: it.Hypervolume, Delta: it.Hypervolume - hvA,
			})
		}
	}
	sort.Slice(r.HV, func(i, j int) bool { return r.HV[i].Iter < r.HV[j].Iter })

	// Front membership: greedy tolerance matching (fronts are small — tens of
	// points — so the quadratic scan is fine).
	usedA := make([]bool, len(frontA))
	for _, p := range frontB {
		matched := false
		for i, q := range frontA {
			if !usedA[i] && pointsMatch(p, q) {
				usedA[i] = true
				matched = true
				break
			}
		}
		if !matched {
			r.Gained = append(r.Gained, p)
		}
	}
	for i, q := range frontA {
		if !usedA[i] {
			r.Lost = append(r.Lost, q)
		}
	}
	return r
}

// Regressed reports whether the candidate's final hypervolume fell short of
// the baseline's by more than tol, relative to the baseline's magnitude
// (absolute when the baseline is near zero). This is the CI gate condition.
func (r *DiffReport) Regressed(tol float64) bool {
	scale := math.Max(math.Abs(r.FinalHVA), 1)
	return r.FinalHVA-r.FinalHVB > tol*scale
}

// Render formats the report as a human-readable text table for the CLI.
func (r *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations: baseline %d, candidate %d\n", r.ItersA, r.ItersB)
	fmt.Fprintf(&b, "evals:      baseline %d, candidate %d (%+d)\n", r.EvalsA, r.EvalsB, r.EvalsB-r.EvalsA)
	fmt.Fprintf(&b, "final hypervolume: baseline %s, candidate %s (%+g)\n",
		fnum(r.FinalHVA), fnum(r.FinalHVB), r.FinalHVB-r.FinalHVA)
	fmt.Fprintf(&b, "front: %d gained, %d lost\n", len(r.Gained), len(r.Lost))
	for _, p := range r.Gained {
		fmt.Fprintf(&b, "  + %s\n", fmtPoint(p))
	}
	for _, p := range r.Lost {
		fmt.Fprintf(&b, "  - %s\n", fmtPoint(p))
	}
	if len(r.HV) > 0 {
		b.WriteString("hypervolume by iteration (delta = candidate - baseline):\n")
		for _, d := range r.HV {
			fmt.Fprintf(&b, "  iter %3d  %12s  %12s  %+g\n", d.Iter, fnum(d.A), fnum(d.B), d.Delta)
		}
	}
	return b.String()
}

func fmtPoint(p []float64) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fnum(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
