package hw

import (
	"fmt"
	"math/rand"
)

// Ascend is one configuration of the Ascend-like commercial architecture
// (paper Section 4.1 and [42]): a DaVinci-style core with a 3D cube unit fed
// by the L0A (left matrix), L0B (right matrix) and L0C (accumulator)
// buffers, an L1 staging buffer, a unified vector buffer, a parameter buffer
// and an instruction cache. The search space covers the buffer capacities,
// the bank groups of each L0 buffer (which bound double-buffering depth) and
// the M/K/N shape of the cube intrinsic.
type Ascend struct {
	L0AKB    int // cube left-input buffer, KB
	L0BKB    int // cube right-input buffer, KB
	L0CKB    int // cube accumulator buffer, KB
	L1KB     int // staging buffer between HBM/L2 and the L0s, KB
	UBKB     int // unified (vector) buffer, KB
	PBKB     int // parameter buffer, KB
	ICacheKB int // instruction cache, KB
	L0ABanks int // bank groups of L0A (1, 2 or 4)
	L0BBanks int
	L0CBanks int
	CubeM    int // cube intrinsic: (M×K)·(K×N) per issue
	CubeK    int
	CubeN    int
}

func (c Ascend) String() string {
	return fmt.Sprintf("L0A=%dKB/%db L0B=%dKB/%db L0C=%dKB/%db L1=%dKB UB=%dKB PB=%dKB IC=%dKB cube=%dx%dx%d",
		c.L0AKB, c.L0ABanks, c.L0BKB, c.L0BBanks, c.L0CKB, c.L0CBanks,
		c.L1KB, c.UBKB, c.PBKB, c.ICacheKB, c.CubeM, c.CubeK, c.CubeN)
}

// TotalSRAMKB returns the total on-core SRAM capacity.
func (c Ascend) TotalSRAMKB() int {
	return c.L0AKB + c.L0BKB + c.L0CKB + c.L1KB + c.UBKB + c.PBKB + c.ICacheKB
}

// DefaultAscend returns the expert-selected default configuration the
// paper's Fig. 11 compares against. Following the paper's observation that
// "the default values of these are simply set by engineers by referring to
// cube parameters", L0A is sized for a handful of cube tiles (ignoring
// weight-stripe reuse across output positions) while L0B and L0C carry
// generous safety margins — precisely the allocation UNICO's search later
// rebalances (L0A up, L0B and L0C down) — and single bank groups on the
// cube input buffers, leaving the load/compute overlap untuned.
func DefaultAscend() Ascend {
	return Ascend{
		L0AKB: 32, L0BKB: 128, L0CKB: 512,
		L1KB: 1024, UBKB: 256, PBKB: 32, ICacheKB: 32,
		L0ABanks: 1, L0BBanks: 1, L0CBanks: 2,
		CubeM: 16, CubeK: 16, CubeN: 16,
	}
}

// AscendSpace is the lattice of Ascend configurations (~1e9 points, matching
// the paper's stated space size).
type AscendSpace struct {
	grid Grid
}

// NewAscendSpace builds the Ascend-like design space.
func NewAscendSpace() *AscendSpace {
	kb := []int{8, 16, 32, 64, 128, 256, 512}
	banks := []int{1, 2, 4}
	grid := NewGrid(
		Axis{Name: "l0a", Values: kb},
		Axis{Name: "l0b", Values: kb},
		Axis{Name: "l0c", Values: []int{16, 32, 64, 128, 256, 512, 1024}},
		Axis{Name: "l1", Values: []int{128, 256, 512, 1024, 2048, 4096}},
		Axis{Name: "ub", Values: []int{32, 64, 128, 256, 512, 1024}},
		Axis{Name: "pb", Values: []int{8, 16, 32, 64}},
		Axis{Name: "icache", Values: []int{8, 16, 32, 64}},
		Axis{Name: "l0a_banks", Values: banks},
		Axis{Name: "l0b_banks", Values: banks},
		Axis{Name: "l0c_banks", Values: banks},
		Axis{Name: "cube_m", Values: []int{2, 4, 8, 16, 32}},
		Axis{Name: "cube_k", Values: []int{4, 8, 16, 32}},
		Axis{Name: "cube_n", Values: []int{2, 4, 8, 16, 32}},
	)
	return &AscendSpace{grid: grid}
}

// Dim returns the encoded dimensionality.
func (s *AscendSpace) Dim() int { return s.grid.Dim() }

// Sample draws a uniformly random configuration point.
func (s *AscendSpace) Sample(rng *rand.Rand) []float64 { return s.grid.Sample(rng) }

// SampleInto draws what Sample draws into x.
func (s *AscendSpace) SampleInto(rng *rand.Rand, x []float64) { s.grid.SampleInto(rng, x) }

// Clip snaps a point to the nearest valid configuration.
func (s *AscendSpace) Clip(x []float64) []float64 { return s.grid.Clip(x) }

// Neighbor moves one axis one lattice step.
func (s *AscendSpace) Neighbor(x []float64, rng *rand.Rand) []float64 {
	return s.grid.Neighbor(x, rng)
}

// Key returns a canonical identifier of the lattice cell containing x.
func (s *AscendSpace) Key(x []float64) string { return s.grid.Key(x) }

// Decode materializes the configuration at x.
func (s *AscendSpace) Decode(x []float64) Ascend {
	v := s.grid.ValuesAt(x)
	return Ascend{
		L0AKB: v[0], L0BKB: v[1], L0CKB: v[2],
		L1KB: v[3], UBKB: v[4], PBKB: v[5], ICacheKB: v[6],
		L0ABanks: v[7], L0BBanks: v[8], L0CBanks: v[9],
		CubeM: v[10], CubeK: v[11], CubeN: v[12],
	}
}

// Encode returns the point representing the given configuration, snapping
// each field to the nearest admissible axis value.
func (s *AscendSpace) Encode(c Ascend) []float64 {
	fields := []int{
		c.L0AKB, c.L0BKB, c.L0CKB, c.L1KB, c.UBKB, c.PBKB, c.ICacheKB,
		c.L0ABanks, c.L0BBanks, c.L0CBanks, c.CubeM, c.CubeK, c.CubeN,
	}
	idx := make([]int, len(fields))
	for i, a := range s.grid.Axes() {
		idx[i] = nearestIndex(a.Values, fields[i])
	}
	return s.grid.Encode(idx)
}

// Describe renders the configuration at x for logs and reports.
func (s *AscendSpace) Describe(x []float64) string { return s.Decode(x).String() }
