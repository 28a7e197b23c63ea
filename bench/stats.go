package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an even
// count); 0 for an empty slice.
func median(vs []float64) float64 {
	return percentile(vs, 0.5)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vs by linear interpolation
// between order statistics; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileResolved reports whether n samples leave at least ten beyond the
// p-quantile — the rule under which a percentile is worth reporting at all.
// A p99 needs 1000 samples, a p90 needs 100; the median needs 20.
func percentileResolved(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9 // 100 × (1 − 0.9) is 9.999… in floating point
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), which
// is what the acceptance procedure of this benchmark uses. It needs at least
// two samples; with fewer it returns the single value twice.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		v := median(vs)
		return v, v
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// The weight is taken after clamping, so it extrapolates past the
		// ends of a short sample exactly as Python does.
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of its median — the
// steadiness measure every end-to-end metric is held to.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// interval is a half-open stretch of wall-clock time in seconds since the
// trace epoch.
type interval struct{ start, end float64 }

// unionLength is the total time covered by at least one of the intervals:
// overlapping stretches (children running on two goroutines) count once.
func unionLength(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	total := 0.0
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = iv
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the union of its children's intervals,
// each child clipped to the parent.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return (parent.end - parent.start) - unionLength(clipped)
}
