package mapsearch

import (
	"math/bits"
	"math/rand"
	"sync"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// ascendLayer is what one layer's schedule searches read but never change,
// whatever the core: the layer's moves, the descending tile ladders the
// depth-first walk backs off along, and the walk itself. Network builds one
// per layer of its workload, and every job of the workload shares it.
//
// The walk's nodes depend on the layer alone, so they are generated once:
// walk grows one backoff level at a time, under mu, as far as the furthest
// job has needed. A node once appended never changes, so a job keeps the
// slice it was last handed and reads below its length without the lock.
type ascendLayer struct {
	moves         mapping.AscendMoves
	tms, tks, tns []int

	mu       sync.Mutex
	gen      backoffWalk
	walk     []mapping.Ascend
	walkDone bool // gen has emitted its last node
}

func newAscendLayer(l workload.Layer) *ascendLayer {
	gm, gk, gn := mapping.GemmDims(l)
	lay := &ascendLayer{
		moves: mapping.NewAscendMoves(l),
		tms:   descLadder(gm), tks: descLadder(gk), tns: descLadder(gn),
	}
	lay.gen = newBackoffWalk(lay)
	return lay
}

// walkPast returns the walk as far as it is generated, first growing it by
// one backoff level if it holds no more than n nodes, and whether it is
// complete.
func (lay *ascendLayer) walkPast(n int) ([]mapping.Ascend, bool) {
	lay.mu.Lock()
	defer lay.mu.Unlock()
	if len(lay.walk) <= n && !lay.walkDone {
		have := len(lay.walk)
		lay.walk = lay.gen.appendLevel(lay.walk)
		lay.walkDone = len(lay.walk) == have
	}
	return lay.walk, lay.walkDone
}

// ascendJob is what the layer problems of one job share: the engine and
// core configuration, the engine's model bound to the core when it offers
// one (ascendBinder), and the job's tally of engine calls.
type ascendJob struct {
	eng   AscendEngine
	cfg   hw.Ascend
	bound camodel.Bound
	bind  bool // evaluate through bound, not eng.Evaluate
	tally *Tally
}

// ascendProblem is one layer on one Ascend-like core configuration: the
// moves, evaluation oracle and seeds of its depth-first search. Like
// spatialProblem, a job's problems are one slice and its searchers hold
// pointers into it; they count their engine calls in the job's tally.
type ascendProblem struct {
	job   *ascendJob
	layer *ascendLayer
}

func (p *ascendProblem) Random(rng *rand.Rand) mapping.Ascend {
	return p.layer.moves.Random(rng)
}

func (p *ascendProblem) Mutate(rng *rand.Rand, m mapping.Ascend) mapping.Ascend {
	return p.layer.moves.Mutate(rng, m)
}

// Evaluate evaluates m, which the moves and the walk made canonical, and
// counts the call.
func (p *ascendProblem) Evaluate(m mapping.Ascend) (ppa.Metrics, error) {
	j := p.job
	var met ppa.Metrics
	var err error
	if j.bind {
		met, err = j.bound.Evaluate(m, p.layer.moves.Layer())
	} else {
		met, err = j.eng.Evaluate(j.cfg, m, *p.layer.moves.Layer())
	}
	j.tally.count(err, camodel.ErrInfeasible)
	return met, err
}

// seeds returns the n warm-start schedules: the single-intrinsic tile
// (always the smallest legal cube granule) and, when it differs, a
// capacity-guided tile grown greedily into the L1 staging buffer, which
// comes first.
func (p *ascendProblem) seeds() (s [2]mapping.Ascend, n int) {
	l, cfg := *p.layer.moves.Layer(), &p.job.cfg
	minimal := mapping.Ascend{
		TM: cfg.CubeM, TK: cfg.CubeK, TN: cfg.CubeN, FuseDepth: 1,
	}.Canon(l)
	guided := minimal
	fits := func(m mapping.Ascend) bool {
		need := (m.TM*m.TK + m.TK*m.TN + m.TM*m.TN) * m.FuseDepth
		return need <= cfg.L1KB*1024 && m.TM*m.TN <= cfg.UBKB*1024
	}
	for progress := true; progress; {
		progress = false
		// Grow TM, then TK, then TN. A switch rather than a table of
		// closures: a closure called through a table moves next to the
		// heap.
		for axis := 0; axis < 3; axis++ {
			next := guided
			switch axis {
			case 0:
				next.TM *= 2
			case 1:
				next.TK *= 2
			default:
				next.TN *= 2
			}
			next = next.Canon(l)
			if next != guided && fits(next) {
				guided = next
				progress = true
			}
		}
	}
	if guided == minimal {
		return [2]mapping.Ascend{minimal}, 1
	}
	return [2]mapping.Ascend{guided, minimal}, 2
}

// DepthFirstFusion is the depth-first buffer-fusion schedule search of the
// Ascend-like platform (paper Section 4.1, following [23, 45, 55, 63]): it
// walks the schedule tree depth-first, trying the deepest fusion and the
// largest tiles first — the most buffer-hungry schedules — and backing off
// toward shallower fusion and smaller tiles as capacity checks fail. Each
// Step evaluates exactly one schedule: first the warm-start seeds, computed
// at the first Step, then the layer's backoff walk, which the layer
// generates one level at a time as the furthest of its searchers reaches it
// (building a searcher builds no node, however large the tree), and once
// the walk is exhausted the searcher refines the incumbent by random
// mutation.
type DepthFirstFusion struct {
	prob *ascendProblem
	rng  *rand.Rand

	// seeds[:nSeeds] head the walk. walk is the layer's walk as long as
	// this searcher last saw it, pos the index of its next node, and
	// walkDone whether walk is the whole of it.
	seeds   [2]mapping.Ascend
	nSeeds  int
	walk    []mapping.Ascend
	pos     int
	bestMet ppa.Metrics
	best    mapping.Ascend
	lastMet ppa.Metrics
	evals   int
	// The flags share one word.
	walkDone, hasBest, lastOK bool
}

// newDepthFirstFusion builds the depth-first searcher of one layer's problem.
func newDepthFirstFusion(prob *ascendProblem, rng *rand.Rand) *DepthFirstFusion {
	return &DepthFirstFusion{prob: prob, rng: rng}
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
	l, tms, tks, tns := *w.lay.moves.Layer(), w.lay.tms, w.lay.tks, w.lay.tns
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
		d.seeds, d.nSeeds = d.prob.seeds()
	}
	d.evals++
	var cand mapping.Ascend
	if d.evals <= d.nSeeds {
		cand = d.seeds[d.evals-1]
	} else if m, ok := d.nextNode(); ok {
		cand = m
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

// nextNode returns the walk's next node, or false once the walk is
// exhausted. It takes the layer's lock only to reach past the part of the
// walk it has seen, and never once it has seen the whole walk.
func (d *DepthFirstFusion) nextNode() (mapping.Ascend, bool) {
	if d.pos == len(d.walk) {
		if d.walkDone {
			return mapping.Ascend{}, false
		}
		d.walk, d.walkDone = d.prob.layer.walkPast(d.pos)
		if d.pos == len(d.walk) {
			return mapping.Ascend{}, false
		}
	}
	d.pos++
	return d.walk[d.pos-1], true
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
// does. An engine that offers ascendBinder is bound to cfg here, once for
// the job.
func (n *Network) Ascend(eng AscendEngine, cfg hw.Ascend, seed int64) *NetworkSearcher {
	lays := n.ascendLayers()
	layers := make([]LayerSearcher, len(lays))
	s := n.searcher(layers, eng.Area(cfg))
	job := &ascendJob{eng: eng, cfg: cfg, tally: &s.tally}
	if b, ok := eng.(ascendBinder); ok && n.valid {
		job.bound, job.bind = b.Bind(cfg), true
	}
	probs := make([]ascendProblem, len(lays))
	for i := range probs {
		probs[i] = ascendProblem{job: job, layer: lays[i]}
		layers[i] = newDepthFirstFusion(&probs[i], newLayerRand(seed, i))
	}
	return s
}
