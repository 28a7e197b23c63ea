package hw

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPow23(t *testing.T) {
	vals := pow23(2, 1) // {1,2,4} x {1,3} = {1,2,3,4,6,12}
	want := []int{1, 2, 3, 4, 6, 12}
	if len(vals) != len(want) {
		t.Fatalf("pow23(2,1) = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("pow23(2,1) = %v, want %v", vals, want)
		}
	}
}

func TestGridPanicsOnBadAxes(t *testing.T) {
	cases := []Axis{
		{Name: "empty"},
		{Name: "unsorted", Values: []int{3, 1}},
		{Name: "dup", Values: []int{1, 1}},
	}
	for _, a := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid accepted axis %q", a.Name)
				}
			}()
			NewGrid(a)
		}()
	}
}

func testGrid() Grid {
	return NewGrid(
		Axis{Name: "a", Values: []int{1, 2, 4, 8}},
		Axis{Name: "b", Values: []int{10, 20, 30}},
		Axis{Name: "c", Values: []int{0, 1}},
	)
}

// gridSize returns the number of lattice points of g as a float64 (design
// spaces can exceed int64).
func gridSize(g Grid) float64 {
	size := 1.0
	for _, a := range g.Axes() {
		size *= float64(len(a.Values))
	}
	return size
}

func TestGridEncodeDecodeRoundTripProperty(t *testing.T) {
	g := testGrid()
	f := func(i, j, k uint8) bool {
		idx := []int{int(i) % 4, int(j) % 3, int(k) % 2}
		x := g.Encode(idx)
		got := g.Indices(x)
		for d := range idx {
			if got[d] != idx[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridClipIdempotentProperty(t *testing.T) {
	g := testGrid()
	f := func(a, b, c float64) bool {
		x := []float64{wrap01(a), wrap01(b), wrap01(c)}
		once := g.Clip(x)
		twice := g.Clip(once)
		for d := range once {
			if once[d] != twice[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func wrap01(v float64) float64 {
	if v < 0 {
		v = -v
	}
	return v - float64(int(v))
}

func TestGridSampleIsValid(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x := g.Sample(rng)
		c := g.Clip(x)
		for d := range x {
			if x[d] != c[d] {
				t.Fatalf("Sample produced off-center point %v (clip %v)", x, c)
			}
		}
	}
}

// TestSampleIntoDrawsAsSample: on both spaces, SampleInto writes the point
// Sample returns from the same generator state, leaves the generator where
// Sample leaves it, and allocates nothing.
func TestSampleIntoDrawsAsSample(t *testing.T) {
	for _, s := range []interface {
		Dim() int
		Sample(*rand.Rand) []float64
		SampleInto(*rand.Rand, []float64)
	}{NewSpatialSpace(Edge), NewAscendSpace()} {
		a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		x := make([]float64, s.Dim())
		for i := 0; i < 100; i++ {
			want := s.Sample(a)
			s.SampleInto(b, x)
			if !slices.Equal(x, want) {
				t.Fatalf("draw %d: SampleInto wrote %v, Sample returned %v", i, x, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Error("SampleInto left the generator elsewhere than Sample")
		}
		if allocs := testing.AllocsPerRun(20, func() { s.SampleInto(b, x) }); allocs != 0 {
			t.Errorf("SampleInto allocates %v times, want 0", allocs)
		}
	}
}

func TestGridNeighborMovesOneAxis(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		x := g.Sample(rng)
		y := g.Neighbor(x, rng)
		xi, yi := g.Indices(x), g.Indices(y)
		diff := 0
		for d := range xi {
			if xi[d] != yi[d] {
				diff++
				if abs(xi[d]-yi[d]) != 1 {
					t.Fatalf("neighbor jumped %d steps on axis %d", xi[d]-yi[d], d)
				}
			}
		}
		if diff > 1 {
			t.Fatalf("neighbor changed %d axes", diff)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestGridKeyDistinguishesCells(t *testing.T) {
	g := testGrid()
	a := g.Encode([]int{0, 0, 0})
	b := g.Encode([]int{1, 0, 0})
	if g.Key(a) == g.Key(b) {
		t.Error("distinct cells share a key")
	}
	if g.Key(a) != g.Key(g.Clip(a)) {
		t.Error("key changed under Clip")
	}
}

func TestScenario(t *testing.T) {
	if Edge.PowerCapMW() != 2000 || Cloud.PowerCapMW() != 20000 {
		t.Errorf("power caps: edge %v cloud %v", Edge.PowerCapMW(), Cloud.PowerCapMW())
	}
	if Edge.String() != "edge" || Cloud.String() != "cloud" {
		t.Errorf("scenario names: %v %v", Edge, Cloud)
	}
}

func TestSpatialSpaceSizes(t *testing.T) {
	edge := NewSpatialSpace(Edge)
	cloud := NewSpatialSpace(Cloud)
	// Paper: edge space ~1e5, cloud ~1e9 (orders of magnitude apart).
	edgeSize, cloudSize := gridSize(edge.grid), gridSize(cloud.grid)
	if edgeSize < 1e4 || edgeSize > 1e7 {
		t.Errorf("edge size = %g", edgeSize)
	}
	if cloudSize < 1e6 {
		t.Errorf("cloud size = %g", cloudSize)
	}
	if cloudSize < 50*edgeSize {
		t.Errorf("cloud (%g) should dwarf edge (%g)", cloudSize, edgeSize)
	}
}

func TestSpatialDecodeFieldsInRange(t *testing.T) {
	s := NewSpatialSpace(Cloud)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		c := s.Decode(s.Sample(rng))
		if c.PEX < 1 || c.PEX > 24 || c.PEY < 1 || c.PEY > 24 {
			t.Fatalf("PE array out of range: %+v", c)
		}
		if c.L1Bytes < 1 || c.L2KB < 1 {
			t.Fatalf("buffer sizes out of range: %+v", c)
		}
		if c.NoCBW != 64 && c.NoCBW != 128 {
			t.Fatalf("NoC BW out of range: %+v", c)
		}
		if c.Dataflow != WeightStationary && c.Dataflow != OutputStationary {
			t.Fatalf("dataflow out of range: %+v", c)
		}
	}
}

func TestAscendSpace(t *testing.T) {
	s := NewAscendSpace()
	if size := gridSize(s.grid); size < 1e8 {
		t.Errorf("ascend space size = %g, want ~1e9", size)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		c := s.Decode(s.Sample(rng))
		if c.L0AKB < 8 || c.L0BKB < 8 || c.L0CKB < 16 {
			t.Fatalf("L0 sizes out of range: %+v", c)
		}
		if c.L0ABanks != 1 && c.L0ABanks != 2 && c.L0ABanks != 4 {
			t.Fatalf("bank groups out of range: %+v", c)
		}
		if c.CubeM < 2 || c.CubeK < 4 || c.CubeN < 2 {
			t.Fatalf("cube dims out of range: %+v", c)
		}
	}
}

func TestDefaultAscendEncodable(t *testing.T) {
	s := NewAscendSpace()
	def := DefaultAscend()
	got := s.Decode(s.Encode(def))
	if got != def {
		t.Errorf("default config not representable exactly: %v -> %v", def, got)
	}
	if def.TotalSRAMKB() <= 0 {
		t.Errorf("TotalSRAMKB = %d", def.TotalSRAMKB())
	}
}

func TestDataflowString(t *testing.T) {
	if WeightStationary.String() != "WS" || OutputStationary.String() != "OS" {
		t.Errorf("dataflow strings: %v %v", WeightStationary, OutputStationary)
	}
}

// TestGridKeyMatchesSprintOfIndices pins the hand-assembled key to the
// string it replaced, fmt.Sprint of the index slice, on random (off-lattice
// and out-of-range) points of both design spaces.
func TestGridKeyMatchesSprintOfIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, g := range map[string]Grid{
		"spatial-edge":  NewSpatialSpace(Edge).grid,
		"spatial-cloud": NewSpatialSpace(Cloud).grid,
		"ascend":        NewAscendSpace().grid,
	} {
		for trial := 0; trial < 2000; trial++ {
			x := make([]float64, g.Dim())
			for i := range x {
				x[i] = rng.Float64()*1.2 - 0.1
			}
			if got, want := g.Key(x), fmt.Sprint(g.Indices(x)); got != want {
				t.Fatalf("%s: Key(%v) = %q, want %q", name, x, got, want)
			}
		}
	}
	g := testGrid()
	x := g.Encode([]int{0, 0, 0})
	if n := testing.AllocsPerRun(100, func() { _ = g.Key(x) }); n > 1 {
		t.Errorf("Key allocates %.0f objects per call, want 1 (the string)", n)
	}
}
