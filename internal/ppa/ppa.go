// Package ppa defines the power-performance-area (PPA) types shared by every
// cost model and search algorithm in the repository.
//
// UNICO treats the PPA estimation engine as a black box (paper Section 3.5):
// given a hardware configuration, a software mapping, and a tensor workload it
// returns latency, power and area. Both the analytical engine
// (internal/maestro) and the cycle-level simulator (internal/camodel) produce
// values of the Metrics type defined here, and the search layers consume the
// History type, which captures the monotone best-so-far trajectory of a
// software-mapping search (paper Section 3.1).
package ppa

import (
	"fmt"
	"math"
)

// Metrics is the power-performance-area result of evaluating one
// (hardware, mapping, workload) triple.
type Metrics struct {
	// LatencyMs is the end-to-end execution latency in milliseconds.
	LatencyMs float64
	// PowerMW is the average power draw in milliwatts.
	PowerMW float64
	// AreaMM2 is the silicon area of the hardware configuration in mm².
	AreaMM2 float64
	// EnergyUJ is the total energy in microjoules
	// (EnergyUJ = LatencyMs * PowerMW, since ms·mW = µJ).
	EnergyUJ float64
}

// EDP returns the energy-delay product in µJ·ms, the default software-mapping
// search objective: it moves when either latency or power moves, which is what
// the robustness metric R needs to observe (paper Section 3.4).
func (m Metrics) EDP() float64 { return m.EnergyUJ * m.LatencyMs }

// Valid reports whether the metrics describe a finite, physically meaningful
// evaluation. Cost models return invalid metrics for illegal mappings (for
// example a tile that does not fit its buffer).
func (m Metrics) Valid() bool {
	for _, v := range []float64{m.LatencyMs, m.PowerMW, m.AreaMM2, m.EnergyUJ} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return false
		}
	}
	return true
}

func (m Metrics) String() string {
	return fmt.Sprintf("L=%.6gms P=%.4gmW A=%.3gmm²", m.LatencyMs, m.PowerMW, m.AreaMM2)
}

// Point is one snapshot of a software-mapping search: after spending Budget
// evaluation steps, the best mapping found so far has loss Loss and metrics M.
type Point struct {
	Budget int
	Loss   float64
	M      Metrics
}

// History is the best-so-far trajectory of a software-mapping search, ordered
// by increasing budget. A mature search tool guarantees the loss sequence is
// monotone non-increasing (paper Section 3.1); the search layers in this
// repository rely on that contract and the tests enforce it.
type History []Point

// Last returns the final (best) point, or a zero Point if the history is
// empty.
func (h History) Last() Point {
	if len(h) == 0 {
		return Point{}
	}
	return h[len(h)-1]
}

// Monotone reports whether the loss sequence never increases with budget.
func (h History) Monotone() bool {
	for i := 1; i < len(h); i++ {
		if h[i].Loss > h[i-1].Loss {
			return false
		}
	}
	return true
}

// AUC measures the area trapped between the loss curve and the horizontal
// line at the final loss value (paper Fig. 4b). A larger AUC indicates a
// steeper-converging candidate: one that was still improving substantially
// over the observed window. The modified successive halving promotes the
// top-p candidates by this value.
func (h History) AUC() float64 {
	if len(h) < 2 {
		return 0
	}
	end := h.Last().Loss
	var area float64
	for i := 1; i < len(h); i++ {
		// Trapezoidal area of the segment above the end-loss line.
		w := float64(h[i].Budget - h[i-1].Budget)
		a := h[i-1].Loss - end
		b := h[i].Loss - end
		area += float64(w * (a + b) / 2)
	}
	return area
}
