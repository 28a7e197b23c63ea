// Package robust implements the hardware robustness (sensitivity) metric R
// of paper Section 3.4 (Eq. 2):
//
//	R = Δ · (1 + F(θ)),   F(θ) = 6/π²·θ² − 5/π·θ + 1
//
// computed from two points of a software-mapping search's *raw* loss
// history (the fluctuating per-candidate curve of paper Fig. 5a, not its
// monotone best-so-far envelope): the "optimal" mapping (the minimum-loss
// sample) and a "sub-optimal" mapping whose loss sits at the (1−α)
// right-tail percentile of the whole loss history (α = 0.05 by default,
// i.e. a mapping only the top 5% of evaluated candidates beat). Δ is the
// distance between the two points in (latency, power) space, and θ encodes
// the direction of the improvement from the sub-optimal to the optimal
// point: improvements that reduce both latency and power land in [0, π/2]
// (mildly penalized), improvements that buy latency by *increasing* power
// land in (π/2, π] (heavily penalized, F(π) = 2 so the multiplier reaches
// 3).
//
// A small R means the hardware performs nearly identically across the
// promising region of its mapping space — the paper's definition of a
// hardware configuration robust to software search, which Section 4.3 shows
// correlates with generalization to unseen networks.
package robust

import (
	"cmp"
	"math"
	"slices"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
)

// DefaultAlpha is the right-tail percentile parameter of the sub-optimal
// band selection. The paper quotes "e.g. 95%" (α = 0.05); the slightly
// wider 90% band estimates the plateau spread with less sampling noise at
// the search budgets used here.
const DefaultAlpha = 0.10

// RInfeasible is the sensitivity assigned to hardware with no feasible
// mapping history: the worst value the metric can justify, keeping the MOBO
// objective finite.
const RInfeasible = 10.0

// F is the paper's angular penalty polynomial. F(0) = 1, F(π/2) = 0,
// F(π) = 2.
func F(theta float64) float64 {
	return float64(6/(math.Pi*math.Pi)*theta*theta) - float64(5/math.Pi*theta) + 1
}

// Theta returns the improvement angle of the displacement from the
// sub-optimal point to the optimal point in (latency, power) space, folded
// into [0, π]:
//
//   - power not increased at the optimum (dPow ≥ 0 where dPow is the power
//     the optimum saves): θ = atan2(dPow, |dLat|) ∈ [0, π/2];
//   - power increased at the optimum: θ = π/2 + atan2(|dPow|, |dLat|), so a
//     pure power increase maps to π (the worst case of Fig. 5c).
func Theta(optimal, suboptimal ppa.Metrics) float64 {
	dLat := suboptimal.LatencyMs - optimal.LatencyMs // ≥ 0: optimum is faster
	dPow := suboptimal.PowerMW - optimal.PowerMW     // ≥ 0: optimum saves power
	if dLat == 0 && dPow == 0 {
		return math.Pi / 2
	}
	if dPow >= 0 {
		return math.Atan2(dPow, math.Abs(dLat))
	}
	return math.Pi/2 + math.Atan2(-dPow, math.Abs(dLat))
}

// Delta returns the relative 2-norm distance between the two points in
// (latency, power) space, normalized by the optimal point's coordinates so
// workloads of different scales are comparable.
func Delta(optimal, suboptimal ppa.Metrics) float64 {
	if optimal.LatencyMs <= 0 || optimal.PowerMW <= 0 {
		return RInfeasible
	}
	dl := (suboptimal.LatencyMs - optimal.LatencyMs) / optimal.LatencyMs
	dp := (suboptimal.PowerMW - optimal.PowerMW) / optimal.PowerMW
	return math.Sqrt(float64(dl*dl) + float64(dp*dp))
}

// Sensitivity computes R from a mapping search's raw loss history with the
// given right-tail parameter alpha. Penalty (infeasible) samples are
// ignored; histories with fewer than two feasible samples yield
// RInfeasible: with nothing to compare, the hardware's mapping landscape is
// unknown and is treated pessimistically.
func Sensitivity(h ppa.History, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	fh := make(ppa.History, 0, len(h))
	for _, p := range h {
		if p.Loss < mapsearch.PenaltyLoss {
			fh = append(fh, p)
		}
	}
	if len(fh) < 2 {
		return RInfeasible
	}
	optimal, band := optimalAndBand(fh, alpha)
	// Average the pairwise sensitivity over the whole sub-optimal band: a
	// single percentile sample is a noisy estimator of the landscape's
	// plateau width, its band mean is not.
	sum := 0.0
	for _, sub := range band {
		sum += float64(Delta(optimal.M, sub.M) * (1 + F(Theta(optimal.M, sub.M))))
	}
	r := sum / float64(len(band))
	if r > RInfeasible {
		r = RInfeasible
	}
	return r
}

// optimalAndBand returns the minimum-loss sample and the band of samples at
// or below the (1−α) right-tail percentile of the loss distribution — the
// "promising region" whose performance spread defines the hardware's
// sensitivity. The optimum itself is excluded from the band. It sorts
// byLoss, Sensitivity's own filtered copy, in place.
func optimalAndBand(byLoss ppa.History, alpha float64) (optimal ppa.Point, band ppa.History) {
	slices.SortStableFunc(byLoss, func(a, b ppa.Point) int { return cmp.Compare(a.Loss, b.Loss) })
	idx := int(math.Ceil(alpha * float64(len(byLoss)-1)))
	if idx < 1 {
		idx = 1
	}
	if idx >= len(byLoss) {
		idx = len(byLoss) - 1
	}
	return byLoss[0], byLoss[1 : idx+1]
}
