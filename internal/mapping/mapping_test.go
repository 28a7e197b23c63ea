package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unico/internal/workload"
)

func testLayer() workload.Layer {
	return workload.Conv("t", 64, 32, 28, 28, 3, 3, 1, 1)
}

func TestCanonClampsTiles(t *testing.T) {
	l := testLayer()
	m := Spatial{TK: 1000, TC: -5, TY: 28, TX: 0, TR: 9, TS: 0, Order: 99, SpatX: DimK, SpatY: DimK}.Canon(l)
	if !m.Valid(l) {
		t.Fatalf("Canon produced invalid mapping %+v", m)
	}
	if m.TK != 64 || m.TC != 1 || m.TX != 1 || m.TR != 3 || m.TS != 1 {
		t.Errorf("clamping wrong: %+v", m)
	}
	if m.SpatX == m.SpatY {
		t.Error("Canon left equal spatial dims")
	}
	if m.Order != 0 {
		t.Errorf("Order = %d, want reset to 0", m.Order)
	}
}

func TestRandomSpatialValidProperty(t *testing.T) {
	l := testLayer()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return RandomSpatial(rng, l).Valid(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutateSpatialValidProperty(t *testing.T) {
	l := testLayer()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandomSpatial(rng, l)
		for i := 0; i < 10; i++ {
			m = MutateSpatial(rng, m, l)
			if !m.Valid(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutateEventuallyMoves(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(7))
	m := RandomSpatial(rng, l)
	moved := false
	for i := 0; i < 50; i++ {
		if MutateSpatial(rng, m, l) != m {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("50 mutations never changed the mapping")
	}
}

// enumeratedLadder is the tile ladder as it is defined: walk the powers of
// two up to the bound, keep each 2^i and 3·2^i that fits, then add the bound
// itself, all without duplicates. tileLadder must give exactly this sequence.
func enumeratedLadder(bound int) []int {
	if bound < 1 {
		return []int{1}
	}
	var vals []int
	seen := map[int]bool{}
	add := func(v int) {
		if v >= 1 && v <= bound && !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	for p := 1; p <= bound && p > 0; p *= 2 {
		add(p)
		add(3 * p)
	}
	add(bound)
	return vals
}

// TestTileLadder holds the closed-form ladder to the enumeration, size for
// size, on every small bound and on bounds around the large powers.
func TestTileLadder(t *testing.T) {
	bounds := []int{-3, 25088, 460800, 1<<31 - 1, 1 << 40, 1<<40 + 5, 3 << 40, 3<<40 - 1, 1 << 61, 3 << 60}
	for b := 0; b <= 5000; b++ {
		bounds = append(bounds, b)
	}
	for _, bound := range bounds {
		want := enumeratedLadder(bound)
		got := tileLadder(bound)
		if got.n != len(want) {
			t.Fatalf("tileLadder(%d) has %d sizes, want %d: %v", bound, got.n, len(want), want)
		}
		for i, w := range want {
			if got.at(i) != w {
				t.Fatalf("tileLadder(%d)[%d] = %d, want %d of %v", bound, i, got.at(i), w, want)
			}
		}
	}
}

func TestTileLadderNearestAndMove(t *testing.T) {
	l := tileLadder(28) // 1 3 2 6 4 12 8 24 16 28
	for _, tc := range []struct{ v, want int }{
		{1, 0}, {3, 1}, {5, 3}, {7, 3}, {10, 5}, {20, 7}, {26, 7}, {27, 9}, {100, 9}, {-4, 0},
	} {
		if got := l.nearest(tc.v); got != tc.want {
			t.Errorf("nearest(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		// The first rung only moves up, the last moves down or stays, and
		// a middle rung lands on a neighbour in enumeration order.
		if got := l.move(rng, 1); got != 3 {
			t.Fatalf("move from 1 gave %d", got)
		}
		if got := l.move(rng, 28); got != 16 && got != 28 {
			t.Fatalf("move from 28 gave %d", got)
		}
		if got := l.move(rng, 6); got != 2 && got != 4 {
			t.Fatalf("move from 6 gave %d", got)
		}
		if got := l.pick(rng); got < 1 || got > 28 {
			t.Fatalf("pick gave %d", got)
		}
	}
}

func TestOrdersArePermutations(t *testing.T) {
	for i, ord := range Orders {
		seen := map[Dim]bool{}
		for _, d := range ord {
			if seen[d] {
				t.Errorf("order %d repeats %v", i, d)
			}
			seen[d] = true
		}
		if len(seen) != len(AllDims) {
			t.Errorf("order %d misses dims: %v", i, ord)
		}
	}
}

func TestGemmDims(t *testing.T) {
	l := workload.Conv("c", 64, 32, 28, 28, 3, 3, 1, 1)
	m, k, n := GemmDims(l)
	// DaVinci convention: M = output channels, K = C*R*S, N = positions.
	if m != 64 || k != 32*9 || n != 28*28 {
		t.Errorf("GemmDims = (%d, %d, %d)", m, k, n)
	}
}

func TestAscendCanonAndValid(t *testing.T) {
	l := testLayer()
	m := Ascend{TM: 1 << 20, TK: 0, TN: -3, FuseDepth: 9}.Canon(l)
	if !m.Valid(l) {
		t.Fatalf("Canon produced invalid schedule %+v", m)
	}
	gm, gk, gn := GemmDims(l)
	if m.TM != gm || m.TK != 1 || m.TN != 1 {
		t.Errorf("clamping wrong: %+v (gm=%d gk=%d gn=%d)", m, gm, gk, gn)
	}
	if m.FuseDepth != 4 {
		t.Errorf("FuseDepth = %d, want clamp to 4", m.FuseDepth)
	}
}

func TestRandomAscendValidProperty(t *testing.T) {
	l := testLayer()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mv := NewAscendMoves(l)
		m := mv.Random(rng)
		if !m.Valid(l) {
			return false
		}
		for i := 0; i < 10; i++ {
			m = mv.Mutate(rng, m)
			if !m.Valid(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDimString(t *testing.T) {
	if DimK.String() != "K" || DimX.String() != "X" {
		t.Errorf("dim strings: %v %v", DimK, DimX)
	}
	if Dim(42).String() == "K" {
		t.Error("out-of-range dim printed as K")
	}
}
