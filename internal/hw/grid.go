// Package hw defines the hardware design spaces UNICO searches over: the
// open-source 2D spatial accelerator template of paper Fig. 1 and the
// Ascend-like commercial architecture of Section 4.1.
//
// Every space is a finite lattice of discrete axes. The Bayesian-optimization
// layer works in the continuous unit hypercube [0,1]^d; this package owns the
// mapping between that cube and concrete hardware configurations: each axis
// value v_i is represented by the cell center (i+0.5)/len(values), Clip snaps
// an arbitrary point to the nearest cell center, and Decode materializes the
// configuration.
package hw

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Axis is one discrete hardware parameter with its admissible values in
// increasing order.
type Axis struct {
	Name   string
	Values []int
}

// levels returns the number of admissible values.
func (a Axis) levels() int { return len(a.Values) }

// index maps a coordinate in [0,1] to the index of the selected value.
func (a Axis) index(x float64) int {
	n := a.levels()
	i := int(math.Floor(x * float64(n)))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// center returns the unit-cube coordinate representing value index i.
func (a Axis) center(i int) float64 { return (float64(i) + 0.5) / float64(a.levels()) }

// Grid is an ordered set of axes: the Cartesian lattice of a design space.
type Grid struct {
	axes []Axis
}

// NewGrid builds a grid from the given axes. It panics if any axis is empty
// or has unsorted/duplicate values, since that indicates a programming error
// in a space definition.
func NewGrid(axes ...Axis) Grid {
	for _, a := range axes {
		if len(a.Values) == 0 {
			panic(fmt.Sprintf("hw: axis %q has no values", a.Name))
		}
		if !sort.IntsAreSorted(a.Values) {
			panic(fmt.Sprintf("hw: axis %q values not sorted", a.Name))
		}
		for i := 1; i < len(a.Values); i++ {
			if a.Values[i] == a.Values[i-1] {
				panic(fmt.Sprintf("hw: axis %q has duplicate value %d", a.Name, a.Values[i]))
			}
		}
	}
	return Grid{axes: axes}
}

// Dim returns the number of axes.
func (g Grid) Dim() int { return len(g.axes) }

// Axes returns the grid's axes.
func (g Grid) Axes() []Axis { return g.axes }

// Sample draws a uniformly random lattice point, returned as cell-center
// coordinates in [0,1]^d.
func (g Grid) Sample(rng *rand.Rand) []float64 {
	x := make([]float64, g.Dim())
	g.SampleInto(rng, x)
	return x
}

// SampleInto draws what Sample draws into x, which must hold Dim
// coordinates.
func (g Grid) SampleInto(rng *rand.Rand, x []float64) {
	if len(x) != g.Dim() {
		panic(fmt.Sprintf("hw: SampleInto: got %d coords, want %d", len(x), g.Dim()))
	}
	for i, a := range g.axes {
		x[i] = a.center(rng.Intn(a.levels()))
	}
}

// Clip snaps an arbitrary point in R^d to the nearest cell center.
func (g Grid) Clip(x []float64) []float64 {
	if len(x) != g.Dim() {
		panic(fmt.Sprintf("hw: Clip: got %d coords, want %d", len(x), g.Dim()))
	}
	out := make([]float64, len(x))
	for i, a := range g.axes {
		out[i] = a.center(a.index(x[i]))
	}
	return out
}

// Indices decodes a point to the per-axis value indices.
func (g Grid) Indices(x []float64) []int {
	if len(x) != g.Dim() {
		panic(fmt.Sprintf("hw: Indices: got %d coords, want %d", len(x), g.Dim()))
	}
	idx := make([]int, len(x))
	for i, a := range g.axes {
		idx[i] = a.index(x[i])
	}
	return idx
}

// ValuesAt decodes a point to the concrete per-axis values.
func (g Grid) ValuesAt(x []float64) []int {
	idx := g.Indices(x)
	vals := make([]int, len(idx))
	for i, a := range g.axes {
		vals[i] = a.Values[idx[i]]
	}
	return vals
}

// Encode returns the cell-center coordinates of the given per-axis indices.
func (g Grid) Encode(idx []int) []float64 {
	if len(idx) != g.Dim() {
		panic(fmt.Sprintf("hw: Encode: got %d indices, want %d", len(idx), g.Dim()))
	}
	x := make([]float64, len(idx))
	for i, a := range g.axes {
		if idx[i] < 0 || idx[i] >= a.levels() {
			panic(fmt.Sprintf("hw: Encode: axis %q index %d out of range [0,%d)", a.Name, idx[i], a.levels()))
		}
		x[i] = a.center(idx[i])
	}
	return x
}

// Key returns a canonical comparable key of the lattice cell containing x,
// used to deduplicate hardware candidates.
//
// The key is the per-axis value indices in fmt's slice form, "[3 0 12]",
// assembled by hand into one buffer: the acquisition search asks for ~10⁴
// keys per suggested batch, and fmt.Sprint of a slice costs a reflection
// walk each.
func (g Grid) Key(x []float64) string {
	if len(x) != g.Dim() {
		panic(fmt.Sprintf("hw: Key: got %d coords, want %d", len(x), g.Dim()))
	}
	var stack [64]byte
	buf := append(stack[:0], '[')
	for i, a := range g.axes {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(a.index(x[i])), 10)
	}
	return string(append(buf, ']'))
}

// Neighbor returns a copy of x with one uniformly chosen axis moved one step
// up or down the lattice (staying in range). Used by acquisition local
// search and by NSGA-II mutation.
func (g Grid) Neighbor(x []float64, rng *rand.Rand) []float64 {
	out := g.Clip(x)
	ai := rng.Intn(g.Dim())
	a := g.axes[ai]
	i := a.index(out[ai])
	step := 1
	if rng.Intn(2) == 0 {
		step = -1
	}
	j := i + step
	if j < 0 {
		j = min(1, a.levels()-1)
	}
	if j >= a.levels() {
		j = max(a.levels()-2, 0)
	}
	out[ai] = a.center(j)
	return out
}

// pow23 returns the sorted, deduplicated values {2^i * 3^j : 0<=i<=maxI,
// 0<=j<=maxJ}, the buffer-size lattice of paper Section 4.1.
func pow23(maxI, maxJ int) []int {
	var vals []int
	p2 := 1
	for i := 0; i <= maxI; i++ {
		p3 := 1
		for j := 0; j <= maxJ; j++ {
			vals = append(vals, p2*p3)
			p3 *= 3
		}
		p2 *= 2
	}
	sort.Ints(vals)
	return vals
}

// seq returns the integers lo..hi inclusive.
func seq(lo, hi int) []int {
	vals := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	return vals
}
