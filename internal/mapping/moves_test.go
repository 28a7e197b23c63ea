package mapping

import (
	"math/rand"
	"testing"

	"unico/internal/workload"
)

// The per-call moves that SpatialMoves and AscendMoves replaced, kept as
// their oracle. Each call builds the ladders it reads from the ladder's
// definition (enumeratedLadder) and scans a ladder for the size nearest the
// current one, so a prebuilt ladder that lost, gained or moved a size — or a
// nearest that skipped a scan it needed — returns another schedule or
// leaves the generator elsewhere.

// oracleLadder is one loop's tile sizes in enumeration order.
type oracleLadder []int

func (l oracleLadder) pick(rng *rand.Rand) int { return l[rng.Intn(len(l))] }

// nearest returns the index of the size closest to v, the first of equally
// close ones.
func (l oracleLadder) nearest(v int) int {
	best, bestDist := 0, -1
	for i, t := range l {
		d := t - v
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func (l oracleLadder) move(rng *rand.Rand, cur int) int {
	i := l.nearest(cur)
	if rng.Intn(2) == 0 && i > 0 {
		i--
	} else if i < len(l)-1 {
		i++
	}
	return l[i]
}

func oracleTiles(bound int) oracleLadder { return enumeratedLadder(bound) }

func oracleRandomSpatial(rng *rand.Rand, l workload.Layer) Spatial {
	m := Spatial{
		SpatX: AllDims[rng.Intn(len(AllDims))],
		SpatY: AllDims[rng.Intn(len(AllDims))],
		Order: rng.Intn(len(Orders)),
	}
	for _, d := range AllDims {
		m.setTile(d, oracleTiles(dimBounds(l)[d]).pick(rng))
	}
	m.TR = oracleTiles(l.R).pick(rng)
	m.TS = oracleTiles(l.S).pick(rng)
	return m.Canon(l)
}

func oracleMutateSpatial(rng *rand.Rand, m Spatial, l workload.Layer) Spatial {
	out := m
	switch rng.Intn(5) {
	case 0, 1:
		d := AllDims[rng.Intn(len(AllDims))]
		out.setTile(d, oracleTiles(dimBounds(l)[d]).move(rng, out.Tile(d)))
	case 2:
		if rng.Intn(2) == 0 {
			out.TR = oracleTiles(l.R).move(rng, out.TR)
		} else {
			out.TS = oracleTiles(l.S).move(rng, out.TS)
		}
	case 3:
		if rng.Intn(2) == 0 {
			out.SpatX = AllDims[rng.Intn(len(AllDims))]
		} else {
			out.SpatY = AllDims[rng.Intn(len(AllDims))]
		}
	case 4:
		out.Order = rng.Intn(len(Orders))
	}
	return out.Canon(l)
}

func oracleRandomAscend(rng *rand.Rand, l workload.Layer) Ascend {
	gm, gk, gn := GemmDims(l)
	return Ascend{
		TM: oracleTiles(gm).pick(rng), TK: oracleTiles(gk).pick(rng), TN: oracleTiles(gn).pick(rng),
		FuseDepth: 1 + rng.Intn(4),
		DBufA:     rng.Intn(2) == 0,
		DBufB:     rng.Intn(2) == 0,
		DBufC:     rng.Intn(2) == 0,
	}.Canon(l)
}

func oracleMutateAscend(rng *rand.Rand, m Ascend, l workload.Layer) Ascend {
	out := m
	gm, gk, gn := GemmDims(l)
	switch rng.Intn(6) {
	case 0:
		out.TM = oracleTiles(gm).move(rng, out.TM)
	case 1:
		out.TK = oracleTiles(gk).move(rng, out.TK)
	case 2:
		out.TN = oracleTiles(gn).move(rng, out.TN)
	case 3:
		out.FuseDepth = 1 + rng.Intn(4)
	case 4:
		out.DBufA = !out.DBufA
	case 5:
		if rng.Intn(2) == 0 {
			out.DBufB = !out.DBufB
		} else {
			out.DBufC = !out.DBufC
		}
	}
	return out.Canon(l)
}

// seededTile draws a tile size for a loop of the given bound that is often
// off the ladder: a ladder size, any size from 0 to past the bound, or the
// midpoint of two neighbouring ladder sizes, where nearest must break a tie
// towards the one enumerated first.
func seededTile(rng *rand.Rand, bound int) int {
	l := oracleTiles(bound)
	switch rng.Intn(3) {
	case 0:
		return l.pick(rng)
	case 1:
		return rng.Intn(bound + 3)
	default:
		i := rng.Intn(len(l))
		j := rng.Intn(len(l))
		return (l[i] + l[j]) / 2
	}
}

// moveLayers is every layer of every zoo network, plus layers whose bounds
// sit at and just off the ladders' powers of two and three-times-powers.
func moveLayers() []workload.Layer {
	var ls []workload.Layer
	for _, w := range workload.All() {
		ls = append(ls, w.Layers...)
	}
	return append(ls,
		workload.Conv("pow2", 1<<20, 1<<12, 1024, 2048, 8, 16, 1, 1),
		workload.Conv("three", 3<<18, 3<<10, 1536, 3, 6, 12, 1, 1),
		workload.Conv("odd", 1<<20+1, 3<<10-1, 1023, 1, 7, 5, 2, 1),
		workload.Gemm("unit", 1, 1, 1, 1),
	)
}

// TestSpatialMovesMatchPerCallOracle holds the prebuilt-ladder moves to the
// per-call ones: the same schedule from every Random and Mutate, on seeded
// schedules with off-ladder tiles, and the generator at the same position
// after them.
func TestSpatialMovesMatchPerCallOracle(t *testing.T) {
	for li, l := range moveLayers() {
		mv := NewSpatialMoves(l)
		for seed := int64(0); seed < 4; seed++ {
			src := rand.New(rand.NewSource(int64(li)*1009 + seed))
			got := rand.New(rand.NewSource(seed))
			want := rand.New(rand.NewSource(seed))
			for step := 0; step < 25; step++ {
				m := Spatial{
					TK: seededTile(src, l.K), TC: seededTile(src, l.C),
					TY: seededTile(src, l.Y), TX: seededTile(src, l.X),
					TR: seededTile(src, l.R), TS: seededTile(src, l.S),
					SpatX: Dim(src.Intn(4)), SpatY: Dim(src.Intn(4)), Order: src.Intn(len(Orders)),
				}
				if g, w := mv.Mutate(got, m), oracleMutateSpatial(want, m, l); g != w {
					t.Fatalf("%s seed %d step %d: Mutate(%v) = %v, per-call %v", l.Name, seed, step, m, g, w)
				}
				if g, w := mv.Random(got), oracleRandomSpatial(want, l); g != w {
					t.Fatalf("%s seed %d step %d: Random = %v, per-call %v", l.Name, seed, step, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s seed %d: generator diverged from the per-call moves", l.Name, seed)
			}
		}
	}
}

// TestAscendMovesMatchPerCallOracle is the same check for the Ascend-like
// schedule moves, over the GEMM-normal ladders.
func TestAscendMovesMatchPerCallOracle(t *testing.T) {
	for li, l := range moveLayers() {
		mv := NewAscendMoves(l)
		gm, gk, gn := GemmDims(l)
		for seed := int64(0); seed < 4; seed++ {
			src := rand.New(rand.NewSource(int64(li)*1013 + seed))
			got := rand.New(rand.NewSource(seed))
			want := rand.New(rand.NewSource(seed))
			for step := 0; step < 25; step++ {
				m := Ascend{
					TM: seededTile(src, gm), TK: seededTile(src, gk), TN: seededTile(src, gn),
					FuseDepth: src.Intn(6), DBufA: src.Intn(2) == 0, DBufB: src.Intn(2) == 0, DBufC: src.Intn(2) == 0,
				}
				if g, w := mv.Mutate(got, m), oracleMutateAscend(want, m, l); g != w {
					t.Fatalf("%s seed %d step %d: Mutate(%v) = %v, per-call %v", l.Name, seed, step, m, g, w)
				}
				if g, w := mv.Random(got), oracleRandomAscend(want, l); g != w {
					t.Fatalf("%s seed %d step %d: Random = %v, per-call %v", l.Name, seed, step, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s seed %d: generator diverged from the per-call moves", l.Name, seed)
			}
		}
	}
}
