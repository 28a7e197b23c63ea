package hw

import (
	"fmt"
	"math/rand"
)

// Dataflow selects the stationarity of the spatial accelerator's PE array
// (paper Section 4.1: the GEMMCore intrinsic supports weight-stationary or
// output-stationary styles).
type Dataflow int

const (
	WeightStationary Dataflow = iota
	OutputStationary
)

func (d Dataflow) String() string {
	if d == WeightStationary {
		return "WS"
	}
	return "OS"
}

// Scenario selects the deployment constraints of Tables 1 and 2.
type Scenario int

const (
	// Edge constrains power to < 2 W and searches the smaller ~1e5 space.
	Edge Scenario = iota
	// Cloud constrains power to < 20 W and searches the full ~1e9 space.
	Cloud
)

func (s Scenario) String() string {
	if s == Edge {
		return "edge"
	}
	return "cloud"
}

// PowerCapMW returns the scenario's power constraint in milliwatts.
func (s Scenario) PowerCapMW() float64 {
	if s == Edge {
		return 2000
	}
	return 20000
}

// Spatial is one configuration of the open-source 2D spatial accelerator
// template (paper Fig. 1): a PEX×PEY processing-element array, per-PE L1
// scratchpads, a shared L2 buffer, the NoC bandwidth and the dataflow style.
type Spatial struct {
	PEX      int // PEs along x, 1..24
	PEY      int // PEs along y, 1..24
	L1Bytes  int // per-PE scratchpad, 2^i*3^j bytes
	L2KB     int // shared global buffer, 2^i*3^j KB
	NoCBW    int // network-on-chip bandwidth, bytes/cycle (64 or 128)
	Dataflow Dataflow
}

func (c Spatial) String() string {
	return fmt.Sprintf("PE%dx%d L1=%dB L2=%dKB NoC=%d %s",
		c.PEX, c.PEY, c.L1Bytes, c.L2KB, c.NoCBW, c.Dataflow)
}

// PEs returns the processing-element count.
func (c Spatial) PEs() int { return c.PEX * c.PEY }

// SpatialSpace is the lattice of Spatial configurations for one scenario.
type SpatialSpace struct {
	grid     Grid
	scenario Scenario
}

// NewSpatialSpace builds the design space of paper Section 4.1. The cloud
// space uses the full published ranges (PE axes 1..24, buffer exponents
// i,j = 0..10, NoC ∈ {64,128}, two dataflows, ~7e7 points); the edge space
// restricts the array to 12×12 and the buffer exponents to i ≤ 6, j ≤ 3
// (~2e5 points), matching the 1e5-vs-1e9 order-of-magnitude gap the paper
// reports between the two scenarios.
func NewSpatialSpace(sc Scenario) *SpatialSpace {
	var pe, l1, l2 []int
	switch sc {
	case Edge:
		pe = seq(1, 12)
		l1 = pow23(6, 3)
		l2 = pow23(6, 3)
	case Cloud:
		pe = seq(1, 24)
		l1 = pow23(10, 10)
		l2 = pow23(10, 10)
	default:
		panic(fmt.Sprintf("hw: unknown scenario %d", sc))
	}
	grid := NewGrid(
		Axis{Name: "pex", Values: pe},
		Axis{Name: "pey", Values: pe},
		Axis{Name: "l1", Values: l1},
		Axis{Name: "l2", Values: l2},
		Axis{Name: "noc", Values: []int{64, 128}},
		Axis{Name: "dataflow", Values: []int{0, 1}},
	)
	return &SpatialSpace{grid: grid, scenario: sc}
}

// Scenario returns the deployment scenario of the space.
func (s *SpatialSpace) Scenario() Scenario { return s.scenario }

// Dim returns the encoded dimensionality.
func (s *SpatialSpace) Dim() int { return s.grid.Dim() }

// Sample draws a uniformly random configuration point.
func (s *SpatialSpace) Sample(rng *rand.Rand) []float64 { return s.grid.Sample(rng) }

// SampleInto draws what Sample draws into x.
func (s *SpatialSpace) SampleInto(rng *rand.Rand, x []float64) { s.grid.SampleInto(rng, x) }

// Clip snaps a point to the nearest valid configuration.
func (s *SpatialSpace) Clip(x []float64) []float64 { return s.grid.Clip(x) }

// Neighbor moves one axis one lattice step.
func (s *SpatialSpace) Neighbor(x []float64, rng *rand.Rand) []float64 {
	return s.grid.Neighbor(x, rng)
}

// Key returns a canonical identifier of the lattice cell containing x.
func (s *SpatialSpace) Key(x []float64) string { return s.grid.Key(x) }

// Decode materializes the configuration at x.
func (s *SpatialSpace) Decode(x []float64) Spatial {
	v := s.grid.ValuesAt(x)
	return Spatial{
		PEX: v[0], PEY: v[1],
		L1Bytes: v[2], L2KB: v[3],
		NoCBW:    v[4],
		Dataflow: Dataflow(v[5]),
	}
}

// Describe renders the configuration at x for logs and reports.
func (s *SpatialSpace) Describe(x []float64) string { return s.Decode(x).String() }

// nearestIndex returns the index of the value in sorted vals closest to v.
func nearestIndex(vals []int, v int) int {
	best, bestDist := 0, -1
	for i, w := range vals {
		d := w - v
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
