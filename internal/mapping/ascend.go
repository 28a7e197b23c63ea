package mapping

import (
	"fmt"
	"math/rand"

	"unico/internal/workload"
)

// Ascend is a schedule for the Ascend-like architecture: how the operator's
// GEMM-normal form (see GemmDims) is tiled into L1 and walked through the
// cube unit, how deep the depth-first buffer fusion runs, and which L0
// buffers double-buffer. This is the configuration the depth-first fusion
// search of paper Section 4.1 explores.
type Ascend struct {
	TM, TK, TN int  // L1 tile of the GEMM-normal dimensions
	FuseDepth  int  // depth-first fusion depth, 1..4 (1 = layer-by-layer)
	DBufA      bool // double-buffer L0A (needs >= 2 bank groups to help)
	DBufB      bool // double-buffer L0B
	DBufC      bool // double-buffer L0C
}

func (m Ascend) String() string {
	return fmt.Sprintf("tile[M=%d K=%d N=%d] fuse=%d dbuf(A=%v B=%v C=%v)",
		m.TM, m.TK, m.TN, m.FuseDepth, m.DBufA, m.DBufB, m.DBufC)
}

// GemmDims returns the GEMM-normal loop bounds (M, K, N) of a layer in the
// DaVinci convention: the left (L0A) matrix holds the weights
// (M = output channels, K = C·R·S reduction) and the right (L0B) matrix the
// im2col activations (N = batch·Y·X output positions), so output channels
// stream through L0A and reuse it across every output position.
func GemmDims(l workload.Layer) (m, k, n int) {
	return l.K, l.C * l.R * l.S, l.N * l.Y * l.X
}

// Canon clamps the schedule to the layer's GEMM-normal bounds and the legal
// fusion range.
func (m Ascend) Canon(l workload.Layer) Ascend {
	gm, gk, gn := GemmDims(l)
	m.TM = clampInt(m.TM, 1, gm)
	m.TK = clampInt(m.TK, 1, gk)
	m.TN = clampInt(m.TN, 1, gn)
	m.FuseDepth = clampInt(m.FuseDepth, 1, 4)
	return m
}

// Valid reports whether the schedule is well-formed for the layer.
func (m Ascend) Valid(l workload.Layer) bool {
	gm, gk, gn := GemmDims(l)
	return m.TM >= 1 && m.TM <= gm &&
		m.TK >= 1 && m.TK <= gk &&
		m.TN >= 1 && m.TN <= gn &&
		m.FuseDepth >= 1 && m.FuseDepth <= 4
}

// AscendMoves is one layer's schedule neighbourhood on the Ascend-like
// core: the tile ladders of its GEMM-normal dimensions, built once, and the
// moves that read them. Like SpatialMoves it is shared and only read.
type AscendMoves struct {
	layer   workload.Layer
	m, k, n ladder
}

// NewAscendMoves builds the layer's tile ladders.
func NewAscendMoves(l workload.Layer) AscendMoves {
	gm, gk, gn := GemmDims(l)
	return AscendMoves{layer: l, m: tileLadder(gm), k: tileLadder(gk), n: tileLadder(gn)}
}

// Layer returns the layer the moves are for.
func (mv *AscendMoves) Layer() *workload.Layer { return &mv.layer }

// Random draws a uniformly random well-formed schedule for the layer.
func (mv *AscendMoves) Random(rng *rand.Rand) Ascend {
	return Ascend{
		TM: mv.m.pick(rng), TK: mv.k.pick(rng), TN: mv.n.pick(rng),
		FuseDepth: 1 + rng.Intn(4),
		DBufA:     rng.Intn(2) == 0,
		DBufB:     rng.Intn(2) == 0,
		DBufC:     rng.Intn(2) == 0,
	}.Canon(mv.layer)
}

// Mutate returns a neighbouring schedule with one field changed.
func (mv *AscendMoves) Mutate(rng *rand.Rand, m Ascend) Ascend {
	out := m
	switch rng.Intn(6) {
	case 0:
		out.TM = mv.m.move(rng, out.TM)
	case 1:
		out.TK = mv.k.move(rng, out.TK)
	case 2:
		out.TN = mv.n.move(rng, out.TN)
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
	return out.Canon(mv.layer)
}

// RandomAscend is Random for a one-off draw, building the layer's moves for
// it; a search holds an AscendMoves per layer instead.
func RandomAscend(rng *rand.Rand, l workload.Layer) Ascend {
	mv := NewAscendMoves(l)
	return mv.Random(rng)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
