// Package pareto provides multi-objective utilities: Pareto dominance and
// front extraction, exact hypervolume (the convergence measure of paper
// Figs. 7 and 10), NSGA-II's crowding distance, and the
// min-Euclidean-distance representative point Tables 1-2 report.
//
// All objectives are minimized throughout.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Dominates reports whether a Pareto-dominates b: a is no worse in every
// objective and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Front returns the indices of the non-dominated points.
func Front(points [][]float64) []int {
	var front []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if Dominates(q, p) || (!Dominates(p, q) && equal(p, q) && j < i) {
				// Dominated, or an exact duplicate of an earlier point.
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FrontPoints returns the non-dominated points themselves.
func FrontPoints(points [][]float64) [][]float64 {
	idx := Front(points)
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = points[j]
	}
	return out
}

// Hypervolume returns the exact hypervolume dominated by points with respect
// to the reference point ref (minimization: only points strictly below ref
// in every coordinate contribute). It implements the WFG recursive
// exclusive-hypervolume algorithm, exact in any dimension and fast for the
// front sizes co-optimization produces.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var pl [][]float64
	for _, p := range points {
		if len(p) != len(ref) {
			panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(p), len(ref)))
		}
		inside := true
		for i := range p {
			if p[i] >= ref[i] {
				inside = false
				break
			}
		}
		if inside {
			pl = append(pl, p)
		}
	}
	pl = FrontPoints(pl)
	// Sorting by the first objective improves the limit-set pruning.
	sort.Slice(pl, func(i, j int) bool { return pl[i][0] < pl[j][0] })
	return wfg(pl, ref)
}

// wfg computes the hypervolume of a mutually non-dominated list.
func wfg(pl [][]float64, ref []float64) float64 {
	sum := 0.0
	for i, p := range pl {
		sum += exclhv(p, pl[i+1:], ref)
	}
	return sum
}

// exclhv is the hypervolume dominated exclusively by p relative to the set s.
func exclhv(p []float64, s [][]float64, ref []float64) float64 {
	return inclhv(p, ref) - wfg(FrontPoints(limitSet(p, s)), ref)
}

// inclhv is the hypervolume of the box between p and ref.
func inclhv(p []float64, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}

// limitSet replaces each point q of s by the component-wise worse of p and q
// (for minimization: the maximum), restricting s to the region p dominates.
func limitSet(p []float64, s [][]float64) [][]float64 {
	out := make([][]float64, len(s))
	for i, q := range s {
		r := make([]float64, len(q))
		for j := range q {
			r[j] = math.Max(p[j], q[j])
		}
		out[i] = r
	}
	return out
}

// RefPoint returns the hypervolume reference: 1.1× the per-objective
// maximum over all supplied points (a non-positive coordinate becomes 1).
// It is nil for no points.
func RefPoint(points [][]float64) []float64 {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	ref := make([]float64, d)
	for _, p := range points {
		for j, v := range p {
			if v > ref[j] {
				ref[j] = v
			}
		}
	}
	for j := range ref {
		ref[j] *= 1.1
		if ref[j] <= 0 {
			ref[j] = 1
		}
	}
	return ref
}

// NormalizedHypervolume is the hypervolume of front after scaling every
// objective by ref, so the reference becomes the unit corner and the value
// lies in [0, 1]. Under a fixed ref it never falls as points are added.
func NormalizedHypervolume(front [][]float64, ref []float64) float64 {
	if len(front) == 0 || len(ref) == 0 {
		return 0
	}
	scaled := make([][]float64, 0, len(front))
	unit := make([]float64, len(ref))
	for j := range unit {
		unit[j] = 1
	}
	for _, p := range front {
		q := make([]float64, len(p))
		for j, v := range p {
			q[j] = v / ref[j]
		}
		scaled = append(scaled, q)
	}
	return Hypervolume(scaled, unit)
}

// CrowdingDistance returns the NSGA-II crowding distance of each point in a
// front (boundary points get +Inf).
func CrowdingDistance(points [][]float64) []float64 {
	n := len(points)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	d := len(points[0])
	idx := make([]int, n)
	for m := 0; m < d; m++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return points[idx[a]][m] < points[idx[b]][m] })
		lo, hi := points[idx[0]][m], points[idx[n-1]][m]
		span := hi - lo
		dist[idx[0]] = math.Inf(1)
		dist[idx[n-1]] = math.Inf(1)
		if span <= 0 {
			continue
		}
		for i := 1; i < n-1; i++ {
			dist[idx[i]] += (points[idx[i+1]][m] - points[idx[i-1]][m]) / span
		}
	}
	return dist
}

// MinEuclid returns the index of the front's knee point: the point with the
// minimum Euclidean distance to the ideal corner after range-normalizing
// every objective over the set — the "min-Euclidean-distance"
// representative Tables 1 and 2 of the paper report. Range normalization
// (rather than dividing by the maximum) keeps the selection stable when a
// front spans orders of magnitude in one objective.
func MinEuclid(points [][]float64) int {
	if len(points) == 0 {
		return -1
	}
	d := len(points[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	best, bestDist := 0, math.Inf(1)
	for i, p := range points {
		sum := 0.0
		for j, v := range p {
			span := hi[j] - lo[j]
			if span <= 0 {
				continue
			}
			nv := (v - lo[j]) / span
			sum += float64(nv * nv)
		}
		if sum < bestDist {
			best, bestDist = i, sum
		}
	}
	return best
}
