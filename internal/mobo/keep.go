package mobo

import (
	"math"
	"sync"

	"unico/internal/gp"
)

// keepCap is how many pool candidates keep what their bound computed. The
// exact scores go to the lowest bounds first, and how many are scored
// varies widely: over 1 620 maximizations of edge_paper-shaped searches
// (256-candidate pools) 61 % scored fewer than 16 candidates, 20 % more
// than 64 and 7 % 128 or more. Half a pool's worth covers all but that
// tail at half the memory of keeping every candidate's; a scored candidate
// past them recomputes its columns, to the same bits.
const keepCap = 16 * gp.TileWidth

// keepSet holds what the bound pass computed for the keepCap candidates of
// lowest (bound, index): per candidate, NumObjectives raw posterior means
// then the kernel columns gp.PredictMeans keeps (gp.ColumnsLen floats) —
// width floats in all. Bound tiles offer their candidates concurrently;
// the set kept is the same for any order of offers. Reads happen after the
// bound fan-out and take no lock.
type keepSet struct {
	mu    sync.Mutex
	width int
	back  []float64 // keepCap slots of width floats
	slot  []int     // pool candidate -> slot, -1 when not kept
	owner []int     // slot -> pool candidate
	bound []float64 // slot -> its candidate's bound
	used  int       // slots 0..used-1 hold a candidate
	worst int       // once every slot is used, the slot of the highest (bound, index)
	// bufs holds tile-sized scratch: TileWidth candidates of width floats,
	// where a tile's candidates are computed before they are offered or
	// when they were not kept.
	bufs *sync.Pool
}

// reset empties the set for a pool of n candidates of width floats each.
func (ks *keepSet) reset(n, width int) {
	if width != ks.width {
		if cap(ks.back) < keepCap*width {
			ks.back = make([]float64, keepCap*width)
		}
		ks.width, ks.back = width, ks.back[:keepCap*width]
		ks.bufs = new(sync.Pool) // its tile buffers have the old width
	}
	if cap(ks.slot) < n {
		ks.slot = make([]int, n)
	}
	ks.slot = ks.slot[:n]
	for i := range ks.slot {
		ks.slot[i] = -1
	}
	if ks.owner == nil {
		ks.owner, ks.bound = make([]int, keepCap), make([]float64, keepCap)
	}
	ks.used = 0
}

// offer puts pool candidates lo, lo+1, … (bounds and data, one per
// candidate) in the set when they are among its keepCap lowest by (bound,
// index) so far; a candidate with no finite bound is never scored and
// never kept.
func (ks *keepSet) offer(lo int, bounds []float64, data [][]float64) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for k, b := range bounds {
		if !(b < math.Inf(1)) {
			continue
		}
		i, s := lo+k, ks.used
		if s < keepCap {
			ks.used++
		} else {
			if s = ks.worst; !lower(b, i, ks.bound[s], ks.owner[s]) {
				continue
			}
			ks.slot[ks.owner[s]] = -1
		}
		copy(ks.back[s*ks.width:(s+1)*ks.width], data[k])
		ks.owner[s], ks.bound[s], ks.slot[i] = i, b, s
		if ks.used == keepCap {
			ks.worst = 0
			for w := range ks.owner {
				if lower(ks.bound[ks.worst], ks.owner[ks.worst], ks.bound[w], ks.owner[w]) {
					ks.worst = w
				}
			}
		}
	}
}

// lower reports whether (bound a, index i) orders before (bound b, index j).
func lower(a float64, i int, b float64, j int) bool {
	return a < b || a == b && i < j
}

// get returns what candidate i's bound kept, or nil.
func (ks *keepSet) get(i int) []float64 {
	if s := ks.slot[i]; s >= 0 {
		return ks.back[s*ks.width : (s+1)*ks.width : (s+1)*ks.width]
	}
	return nil
}

// tileBuf returns scratch for one tile's candidates, width floats each.
func (ks *keepSet) tileBuf() *[gp.TileWidth][]float64 {
	if b, ok := ks.bufs.Get().(*[gp.TileWidth][]float64); ok {
		return b
	}
	b := new([gp.TileWidth][]float64)
	back := make([]float64, gp.TileWidth*ks.width)
	for k := range b {
		b[k] = back[k*ks.width : (k+1)*ks.width : (k+1)*ks.width]
	}
	return b
}

// putTileBuf returns tile scratch taken by tileBuf.
func (ks *keepSet) putTileBuf(b *[gp.TileWidth][]float64) { ks.bufs.Put(b) }
