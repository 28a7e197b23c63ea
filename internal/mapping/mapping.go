// Package mapping defines software-mapping (schedule) representations for
// both accelerator platforms, together with the sampling and mutation moves
// the mapping-search tools (internal/mapsearch) operate on.
//
// A mapping fixes how the 7D operator loop nest (paper Fig. 1) is split
// across the memory hierarchy and the PE array: which loops are tiled with
// what factors, which dimensions are mapped spatially, and in what temporal
// order the tiles are visited. The cost models judge legality (does a tile
// fit its buffer?) and quality; this package only describes schedules and
// their neighbourhoods.
package mapping

import (
	"fmt"
	"math/bits"
	"math/rand"

	"unico/internal/workload"
)

// Dim identifies one tileable loop of the convolution nest.
type Dim int

const (
	DimK Dim = iota // output channels
	DimC            // input channels
	DimY            // output rows
	DimX            // output cols
)

var dimNames = [...]string{"K", "C", "Y", "X"}

func (d Dim) String() string {
	if d < 0 || int(d) >= len(dimNames) {
		return fmt.Sprintf("Dim(%d)", int(d))
	}
	return dimNames[d]
}

// AllDims lists the tileable dimensions.
var AllDims = []Dim{DimK, DimC, DimY, DimX}

// Orders enumerates the canonical temporal loop orders (outermost dimension
// first) a mapping may select. Restricting to rotations of (K,C,Y,X) keeps
// the space the size FlexTensor prunes to while still changing which operand
// enjoys outer-loop reuse.
var Orders = [][]Dim{
	{DimK, DimC, DimY, DimX},
	{DimC, DimK, DimY, DimX},
	{DimY, DimX, DimK, DimC},
	{DimK, DimY, DimX, DimC},
	{DimC, DimY, DimX, DimK},
	{DimY, DimK, DimC, DimX},
}

// Spatial is a schedule for the open-source spatial accelerator: L1 tile
// sizes per dimension (including the R×S kernel window, which FlexTensor's
// split primitive also tiles), the two dimensions unrolled across the PE
// array's x and y axes, and the temporal loop order. The kernel-window
// loops always nest innermost, so TR/TS participate in tiling but not in
// the Orders permutation or spatial unrolling.
type Spatial struct {
	TK, TC, TY, TX int // L1 tile sizes (clamped to the layer bounds)
	TR, TS         int // kernel-window tile sizes
	SpatX, SpatY   Dim // dimensions mapped across PEX and PEY
	Order          int // index into Orders
}

func (m Spatial) String() string {
	return fmt.Sprintf("tile[K=%d C=%d Y=%d X=%d R=%d S=%d] spat(%s,%s) order=%v",
		m.TK, m.TC, m.TY, m.TX, m.TR, m.TS, m.SpatX, m.SpatY, Orders[m.Order])
}

// Tile returns the tile size of dimension d.
func (m Spatial) Tile(d Dim) int {
	switch d {
	case DimK:
		return m.TK
	case DimC:
		return m.TC
	case DimY:
		return m.TY
	case DimX:
		return m.TX
	}
	panic(fmt.Sprintf("mapping: bad dim %d", d))
}

// setTile sets the tile size of dimension d.
func (m *Spatial) setTile(d Dim, v int) {
	switch d {
	case DimK:
		m.TK = v
	case DimC:
		m.TC = v
	case DimY:
		m.TY = v
	case DimX:
		m.TX = v
	default:
		panic(fmt.Sprintf("mapping: bad dim %d", d))
	}
}

// Canon clamps the mapping to the layer's loop bounds and repairs degenerate
// choices (equal spatial dimensions, out-of-range order). Every generator
// and mutation funnels through Canon so downstream code can assume a
// well-formed schedule.
func (m Spatial) Canon(l workload.Layer) Spatial { return m.canon(&l) }

// canon is Canon reading the layer in place: a search's moves canonicalize
// every schedule they return, and the layer is twelve words to copy.
func (m Spatial) canon(l *workload.Layer) Spatial {
	m.TK = min(max(m.TK, 1), l.K)
	m.TC = min(max(m.TC, 1), l.C)
	m.TY = min(max(m.TY, 1), l.Y)
	m.TX = min(max(m.TX, 1), l.X)
	m.TR = clampTile(m.TR, l.R)
	m.TS = clampTile(m.TS, l.S)
	if m.Order < 0 || m.Order >= len(Orders) {
		m.Order = 0
	}
	if m.SpatX < 0 || m.SpatX > DimX {
		m.SpatX = DimK
	}
	if m.SpatY < 0 || m.SpatY > DimX {
		m.SpatY = DimY
	}
	if m.SpatX == m.SpatY {
		// Pick the next dimension cyclically to keep the pair distinct.
		m.SpatY = Dim((int(m.SpatY) + 1) % len(AllDims))
	}
	return m
}

// clampTile clamps a tile size to [1, bound].
func clampTile(t, bound int) int {
	if t < 1 {
		return 1
	}
	if t > bound {
		return bound
	}
	return t
}

// Valid reports whether the mapping is well-formed for the layer.
func (m Spatial) Valid(l workload.Layer) bool {
	bounds := dimBounds(l)
	for _, d := range AllDims {
		t := m.Tile(d)
		if t < 1 || t > bounds[d] {
			return false
		}
	}
	if m.TR < 1 || m.TR > l.R || m.TS < 1 || m.TS > l.S {
		return false
	}
	return m.SpatX != m.SpatY &&
		m.Order >= 0 && m.Order < len(Orders) &&
		m.SpatX >= 0 && m.SpatX <= DimX &&
		m.SpatY >= 0 && m.SpatY <= DimX
}

// dimBounds returns the loop bound of each tileable dimension for the
// layer, indexed by Dim. An array rather than a map: this sits under every
// Canon/Mutate call on the mapping-search hot path, and the map allocation
// plus hashed lookups dominated the profile.
func dimBounds(l workload.Layer) [4]int {
	return [4]int{DimK: l.K, DimC: l.C, DimY: l.Y, DimX: l.X}
}

// ladderRungs is the unclipped tile ladder {2^i, 3·2^i} in the order
// FlexTensor enumerates split factors: 1, 3, 2, 6, 4, 12, 8, 24, …
var ladderRungs = func() (r [124]int) {
	for i := range r {
		r[i] = (1 + 2*(i&1)) << (i >> 1)
	}
	return r
}()

// ladder is the candidate tile sizes for a loop of one bound: the rungs of
// ladderRungs that fit, in enumeration order, then the bound itself unless it
// is a rung. 3·2^i stops fitting one or two steps before 2^i does, so the
// rungs that fit are a prefix of ladderRungs and then at most two powers of
// two. A ladder depends only on its bound, so a layer's moves (SpatialMoves,
// AscendMoves) build theirs once.
type ladder struct {
	prefix int    // the first prefix entries of ladderRungs
	rest   [3]int // then the last powers of two, then the bound
	n      int    // number of tile sizes: prefix + the used part of rest
}

// tileLadder returns the candidate tile sizes for a loop of the given bound.
// This mirrors the split-factor candidates FlexTensor enumerates.
func tileLadder(bound int) ladder {
	if bound < 1 {
		return ladder{prefix: 1, n: 1} // the one tile size 1
	}
	a := bits.Len(uint(bound)) - 1 // 2^a is the largest power of two that fits
	b := a - 1                     // 3·2^b is the largest three-times-one that does
	if b >= 0 && 3<<b > bound {
		b--
	}
	l := ladder{prefix: 2 * (b + 1)}
	k := 0
	for p := b + 1; p <= a; p++ {
		l.rest[k] = 1 << p
		k++
	}
	if bound != 1<<a && (b < 0 || bound != 3<<b) {
		l.rest[k] = bound
		k++
	}
	l.n = l.prefix + k
	return l
}

// at returns the i-th tile size, 0 <= i < l.n.
func (l *ladder) at(i int) int {
	if i < l.prefix {
		return ladderRungs[i]
	}
	return l.rest[i-l.prefix]
}

// pick draws one tile size uniformly.
func (l *ladder) pick(rng *rand.Rand) int { return l.at(rng.Intn(l.n)) }

// move returns the tile size one step down or up the ladder from the one
// nearest cur. A down draw on the first rung steps up instead; an up draw on
// the last stays put.
func (l *ladder) move(rng *rand.Rand, cur int) int {
	i := l.nearest(cur)
	if rng.Intn(2) == 0 && i > 0 {
		i--
	} else if i < l.n-1 {
		i++
	}
	return l.at(i)
}

// nearest returns the index of the tile size closest to v (the first of
// equally close ones). The sizes are distinct, so a v on the ladder — every
// tile a search's moves produce — is its own nearest and is found without a
// scan.
func (l *ladder) nearest(v int) int {
	if i, ok := l.index(v); ok {
		return i
	}
	best, bestDist := 0, -1
	for i := 0; i < l.n; i++ {
		d := l.at(i) - v
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// index returns the position of v on the ladder, if v is one of its sizes:
// 2^p is rung 2p and 3·2^p rung 2p+1 when the prefix reaches them, and the
// rest are compared.
func (l *ladder) index(v int) (int, bool) {
	if v < 1 {
		return 0, false
	}
	p := bits.TrailingZeros(uint(v))
	switch i := 2 * p; v >> p {
	case 1:
		if i < l.prefix {
			return i, true
		}
	case 3:
		if i+1 < l.prefix {
			return i + 1, true
		}
	}
	for k := 0; k < l.n-l.prefix; k++ {
		if l.rest[k] == v {
			return l.prefix + k, true
		}
	}
	return 0, false
}

// SpatialMoves is one layer's schedule neighbourhood on the spatial
// accelerator: the tile ladders of its six tiled loops, built once, and the
// sampling and mutation moves that read them. A search builds one
// per layer of its workload and shares it across hardware candidates; the
// methods only read it, so it is safe for concurrent use.
type SpatialMoves struct {
	layer workload.Layer
	tiles [4]ladder // indexed by Dim
	r, s  ladder    // kernel window
}

// NewSpatialMoves builds the layer's tile ladders.
func NewSpatialMoves(l workload.Layer) SpatialMoves {
	mv := SpatialMoves{layer: l, r: tileLadder(l.R), s: tileLadder(l.S)}
	for d, bound := range dimBounds(l) {
		mv.tiles[d] = tileLadder(bound)
	}
	return mv
}

// Layer returns the layer the moves are for, in place: the caller reads it
// and must not change it.
func (mv *SpatialMoves) Layer() *workload.Layer { return &mv.layer }

// Canon is Spatial.Canon for the moves' layer.
func (mv *SpatialMoves) Canon(m Spatial) Spatial { return m.canon(&mv.layer) }

// Random draws a uniformly random well-formed schedule for the layer.
func (mv *SpatialMoves) Random(rng *rand.Rand) Spatial {
	m := Spatial{
		SpatX: AllDims[rng.Intn(len(AllDims))],
		SpatY: AllDims[rng.Intn(len(AllDims))],
		Order: rng.Intn(len(Orders)),
	}
	for _, d := range AllDims {
		m.setTile(d, mv.tiles[d].pick(rng))
	}
	m.TR = mv.r.pick(rng)
	m.TS = mv.s.pick(rng)
	return m.canon(&mv.layer)
}

// Mutate returns a neighbouring schedule: one field changed — a tile size
// moved along its ladder, a spatial dimension swapped, or the loop order
// changed.
func (mv *SpatialMoves) Mutate(rng *rand.Rand, m Spatial) Spatial {
	out := m
	switch rng.Intn(5) {
	case 0, 1: // move one tile size one ladder step (most productive move)
		d := AllDims[rng.Intn(len(AllDims))]
		out.setTile(d, mv.tiles[d].move(rng, out.Tile(d)))
	case 2: // move a kernel-window tile
		if rng.Intn(2) == 0 {
			out.TR = mv.r.move(rng, out.TR)
		} else {
			out.TS = mv.s.move(rng, out.TS)
		}
	case 3: // re-pick a spatial dimension
		if rng.Intn(2) == 0 {
			out.SpatX = AllDims[rng.Intn(len(AllDims))]
		} else {
			out.SpatY = AllDims[rng.Intn(len(AllDims))]
		}
	case 4: // change loop order
		out.Order = rng.Intn(len(Orders))
	}
	return out.canon(&mv.layer)
}

// RandomSpatial is Random for a one-off draw, building the layer's moves for
// it; a search holds a SpatialMoves per layer instead.
func RandomSpatial(rng *rand.Rand, l workload.Layer) Spatial {
	mv := NewSpatialMoves(l)
	return mv.Random(rng)
}

// MutateSpatial is Mutate for a one-off move, building the layer's moves for
// it; a search holds a SpatialMoves per layer instead.
func MutateSpatial(rng *rand.Rand, m Spatial, l workload.Layer) Spatial {
	mv := NewSpatialMoves(l)
	return mv.Mutate(rng, m)
}
