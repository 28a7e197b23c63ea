package mapsearch

import (
	"math/bits"
	"math/rand"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// ascendLayer is what one layer's schedule searches read but never change,
// whatever the core: the layer's moves and the descending tile ladders the
// depth-first walk backs off along. Network builds one per layer of its
// workload.
type ascendLayer struct {
	moves         mapping.AscendMoves
	tms, tks, tns []int
}

func newAscendLayer(l workload.Layer) ascendLayer {
	gm, gk, gn := mapping.GemmDims(l)
	return ascendLayer{
		moves: mapping.NewAscendMoves(l),
		tms:   descLadder(gm), tks: descLadder(gk), tns: descLadder(gn),
	}
}

// ascendProblem is one layer on one Ascend-like core configuration: the
// moves, evaluation oracle and seeds of its depth-first search. Like
// spatialProblem, a job's problems are one slice and its searchers hold
// pointers into it.
type ascendProblem struct {
	eng   AscendEngine
	cfg   hw.Ascend
	layer *ascendLayer
}

func (p *ascendProblem) Random(rng *rand.Rand) mapping.Ascend {
	return p.layer.moves.Random(rng)
}

func (p *ascendProblem) Mutate(rng *rand.Rand, m mapping.Ascend) mapping.Ascend {
	return p.layer.moves.Mutate(rng, m)
}

func (p *ascendProblem) Evaluate(m mapping.Ascend) (ppa.Metrics, error) {
	return p.eng.Evaluate(p.cfg, m, p.layer.moves.Layer())
}

// Seeds returns the warm-start schedules: the single-intrinsic tile (always
// the smallest legal cube granule) and a capacity-guided tile grown greedily
// into the L1 staging buffer.
func (p *ascendProblem) Seeds() []mapping.Ascend {
	l := p.layer.moves.Layer()
	minimal := mapping.Ascend{
		TM: p.cfg.CubeM, TK: p.cfg.CubeK, TN: p.cfg.CubeN, FuseDepth: 1,
	}.Canon(l)
	guided := minimal
	fits := func(m mapping.Ascend) bool {
		need := (m.TM*m.TK + m.TK*m.TN + m.TM*m.TN) * m.FuseDepth
		return need <= p.cfg.L1KB*1024 && m.TM*m.TN <= p.cfg.UBKB*1024
	}
	for progress := true; progress; {
		progress = false
		for _, grow := range []func(*mapping.Ascend){
			func(m *mapping.Ascend) { m.TM *= 2 },
			func(m *mapping.Ascend) { m.TK *= 2 },
			func(m *mapping.Ascend) { m.TN *= 2 },
		} {
			next := guided
			grow(&next)
			next = next.Canon(l)
			if next != guided && fits(next) {
				guided = next
				progress = true
			}
		}
	}
	if guided == minimal {
		return []mapping.Ascend{minimal}
	}
	return []mapping.Ascend{guided, minimal}
}

// DepthFirstFusion is the depth-first buffer-fusion schedule search of the
// Ascend-like platform (paper Section 4.1, following [23, 45, 55, 63]): it
// walks the schedule tree depth-first, trying the deepest fusion and the
// largest tiles first — the most buffer-hungry schedules — and backing off
// toward shallower fusion and smaller tiles as capacity checks fail. Each
// Step evaluates exactly one schedule: first the warm-start seeds, computed
// at the first Step, then the backoff walk, which is generated one level at
// a time as Step reaches it (building a searcher builds no node, however
// large the tree), and once the walk is exhausted the searcher refines the
// incumbent by random mutation.
type DepthFirstFusion struct {
	prob *ascendProblem
	rng  *rand.Rand

	// pending holds the walk nodes generated but not yet evaluated — the
	// seeds, then one backoff level at a time; pos is the next node.
	pending []mapping.Ascend
	pos     int
	walk    backoffWalk
	bestMet ppa.Metrics
	best    mapping.Ascend
	hasBest bool
	lastMet ppa.Metrics
	lastOK  bool
	evals   int
}

// newDepthFirstFusion builds the depth-first searcher of one layer's problem.
func newDepthFirstFusion(prob *ascendProblem, rng *rand.Rand) *DepthFirstFusion {
	return &DepthFirstFusion{prob: prob, rng: rng, walk: newBackoffWalk(prob.layer)}
}

const (
	// maxFuseDepth and dbufCombos size the two fixed axes of the schedule
	// tree: fusion depths 4..1, and the double-buffer combinations ABC, AB,
	// A, none — like the tile ladders, most buffer-hungry first.
	maxFuseDepth = 4
	dbufCombos   = 4
	// maxWalkNodes caps the walk: no realistic budget visits more than the
	// first couple thousand nodes before mutation does better.
	maxWalkNodes = 2048
)

// backoffWalk enumerates the schedule tree in backoff order: index tuples
// over (fusion depth, TM, TK, TN, double-buffer combo) — each axis largest /
// most aggressive first — ordered by total backoff (the index sum) so the
// walk retreats from the most buffer-hungry corner one resource at a time,
// the practical traversal order of depth-first fusion searchers. Within one
// backoff level the tuples come in lexicographic order, which is the order
// a stable sort of the full product by index sum would give.
type backoffWalk struct {
	lay   *ascendLayer
	level int // next backoff level to emit
	left  int // nodes the walk may still emit
}

func newBackoffWalk(lay *ascendLayer) backoffWalk {
	return backoffWalk{lay: lay, left: maxWalkNodes}
}

// appendLevel appends the next backoff level's nodes to dst. It appends
// nothing once the last level or the node cap has been reached.
func (w *backoffWalk) appendLevel(dst []mapping.Ascend) []mapping.Ascend {
	c := w.level
	l, tms, tks, tns := w.lay.moves.Layer(), w.lay.tms, w.lay.tks, w.lay.tns
	// The deepest level backs every axis off to its last index.
	last := (maxFuseDepth - 1) + (len(tms) - 1) + (len(tks) - 1) + (len(tns) - 1) + (dbufCombos - 1)
	if w.left == 0 || c > last {
		return dst
	}
	w.level++
	for fi := 0; fi < maxFuseDepth; fi++ {
		for mi, tm := range tms {
			for ki, tk := range tks {
				for ni, tn := range tns {
					di := c - fi - mi - ki - ni
					if di < 0 {
						break // a larger ni only overshoots further
					}
					if di >= dbufCombos {
						continue
					}
					if w.left == 0 {
						return dst
					}
					w.left--
					// di drops one double buffer at a time: C, then B, then A.
					dst = append(dst, mapping.Ascend{
						TM: tm, TK: tk, TN: tn, FuseDepth: maxFuseDepth - fi,
						DBufA: di < 3, DBufB: di < 2, DBufC: di < 1,
					}.Canon(l))
				}
			}
		}
	}
	return dst
}

// descLadder returns the candidate tile sizes for a bound, largest first,
// thinned to at most eight rungs spread geometrically across the whole
// range (the walk must be able to back off all the way to tiny tiles for
// huge layers).
func descLadder(bound int) []int {
	vals := make([]int, 0, bits.Len(uint(bound))+1)
	for p := 1; p <= bound; p *= 2 {
		vals = append(vals, p)
	}
	if vals[len(vals)-1] != bound {
		vals = append(vals, bound)
	}
	// Largest first.
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
	const maxRungs = 8
	if len(vals) <= maxRungs {
		return vals
	}
	// Even subsample keeping both endpoints.
	out := make([]int, 0, maxRungs)
	for i := 0; i < maxRungs; i++ {
		out = append(out, vals[i*(len(vals)-1)/(maxRungs-1)])
	}
	return out
}

// Step spends one evaluation.
func (d *DepthFirstFusion) Step() {
	if d.evals == 0 {
		// The warm-start seeds head the walk so feasibility is established
		// on the first steps, then the deterministic backoff sweep takes
		// over.
		d.pending = d.prob.Seeds()
	}
	d.evals++
	var cand mapping.Ascend
	if d.pos == len(d.pending) {
		// The consumed level's storage is reused for the next one.
		d.pending, d.pos = d.walk.appendLevel(d.pending[:0]), 0
	}
	if d.pos < len(d.pending) {
		cand = d.pending[d.pos]
		d.pos++
	} else if d.hasBest {
		cand = d.prob.Mutate(d.rng, d.best)
	} else {
		cand = d.prob.Random(d.rng)
	}
	met, err := d.prob.Evaluate(cand)
	if err != nil {
		d.lastOK = false
		return
	}
	d.lastMet, d.lastOK = met, true
	if !d.hasBest || Loss(met) < Loss(d.bestMet) {
		d.best, d.bestMet, d.hasBest = cand, met, true
	}
}

// Best returns the best feasible metrics found so far.
func (d *DepthFirstFusion) Best() (ppa.Metrics, bool) { return d.bestMet, d.hasBest }

// Last returns the most recent evaluation's metrics.
func (d *DepthFirstFusion) Last() (ppa.Metrics, bool) { return d.lastMet, d.lastOK }

// Evals returns the number of evaluations spent.
func (d *DepthFirstFusion) Evals() int { return d.evals }

// NewAscendSearcher builds the network-level schedule search for one
// Ascend-like core configuration. The Algo is ignored (see Algo).
func NewAscendSearcher(eng AscendEngine, cfg hw.Ascend, w workload.Workload, _ Algo, seed int64) *NetworkSearcher {
	return NewNetwork(w).Ascend(eng, cfg, seed)
}

// Ascend builds the network's schedule search for one Ascend-like core
// configuration, one depth-first search per layer, as NewAscendSearcher
// does.
func (n *Network) Ascend(eng AscendEngine, cfg hw.Ascend, seed int64) *NetworkSearcher {
	lays := n.ascendLayers()
	probs := make([]ascendProblem, len(lays))
	layers := make([]LayerSearcher, len(probs))
	for i := range probs {
		probs[i] = ascendProblem{eng: eng, cfg: cfg, layer: &lays[i]}
		layers[i] = newDepthFirstFusion(&probs[i], newLayerRand(seed, i))
	}
	return n.searcher(layers, eng.Area(cfg))
}
