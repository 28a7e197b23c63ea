package mapsearch

import (
	"math/rand"

	"unico/internal/hw"
	"unico/internal/lfg"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// Algo names a platform's mapping-search tool, mirroring the "SW Mapping
// Explorer" component of paper Fig. 6a. Each platform runs one: the
// annealer on the spatial platform, the depth-first search on the
// Ascend-like one. The constructors that take an Algo ignore it; the
// parameter stays only because bench/, which a change to the library may
// not edit, passes one to NewSpatialSearcher, NewAscendSearcher,
// platform.NewSpatial and platform.NewAscend.
type Algo int

const (
	// FlexTensorLike is the annealing searcher (FlexTensor stand-in) of the
	// spatial platform.
	FlexTensorLike Algo = iota
	// DepthFirst is the depth-first buffer-fusion search of the Ascend-like
	// platform.
	DepthFirst
)

// String is the searcher's name on the wire (dist.JobSpec.Algo).
func (a Algo) String() string {
	switch a {
	case FlexTensorLike:
		return "flextensor"
	case DepthFirst:
		return "depthfirst"
	default:
		return "unknown"
	}
}

// spatialJob is what the layer problems of one job share: the engine and
// configuration, the engine's model bound to the configuration when it
// offers one (spatialBinder), and the job's tally of engine calls.
type spatialJob struct {
	eng   SpatialEngine
	cfg   hw.Spatial
	bound maestro.Bound
	bind  bool // evaluate through bound, not eng.Evaluate
	tally *tally
}

// spatialProblem adapts one layer on one spatial-accelerator configuration
// to the Problem interface. A job's problems are one slice, built by
// Network.Spatial, and its searchers hold pointers into it; the layer's moves
// are the Network's, shared by every job of the workload.
type spatialProblem struct {
	job   *spatialJob
	moves *mapping.SpatialMoves
}

func (p *spatialProblem) Random(rng *rand.Rand) mapping.Spatial {
	return p.moves.Random(rng)
}

func (p *spatialProblem) Mutate(rng *rand.Rand, m mapping.Spatial) mapping.Spatial {
	return p.moves.Mutate(rng, m)
}

// Evaluate evaluates m, which the moves made canonical, and counts the call.
func (p *spatialProblem) Evaluate(m mapping.Spatial) (ppa.Metrics, error) {
	j := p.job
	var met ppa.Metrics
	var err error
	if j.bind {
		met, err = j.bound.Evaluate(m, p.moves.Layer())
	} else {
		met, err = j.eng.Evaluate(j.cfg, m, *p.moves.Layer())
	}
	j.tally.count(err)
	return met, err
}

// Seeds returns the warm-start schedules: the minimal (always smallest) tile
// and a capacity-guided tile grown greedily to fill the L1 scratchpad.
func (p *spatialProblem) Seeds() []mapping.Spatial {
	l := p.moves.Layer()
	minimal := p.moves.Canon(mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY})
	guided := minimal
	// Greedily double tile dimensions while the double-buffered footprint
	// stays within L1 (mirrors the engine's residency check).
	fits := func(m mapping.Spatial) bool {
		inC := m.TC
		if l.Kind == workload.DWConv2D {
			inC = m.TK
		}
		in := inC * ((m.TY-1)*l.Stride + m.TR) * ((m.TX-1)*l.Stride + m.TS)
		w := m.TK * m.TC * m.TR * m.TS
		out := 2 * m.TK * m.TY * m.TX
		return 2*(in+w+out) <= p.job.cfg.L1Bytes
	}
	for progress := true; progress; {
		progress = false
		for _, d := range mapping.AllDims {
			next := guided
			switch d {
			case mapping.DimK:
				next.TK *= 2
			case mapping.DimC:
				next.TC *= 2
			case mapping.DimY:
				next.TY *= 2
			case mapping.DimX:
				next.TX *= 2
			}
			if next.TR < l.R {
				next.TR *= 2
			} else if next.TS < l.S {
				next.TS *= 2
			}
			next = p.moves.Canon(next)
			if next != guided && fits(next) {
				guided = next
				progress = true
			}
		}
	}
	if guided == minimal {
		return []mapping.Spatial{minimal}
	}
	return []mapping.Spatial{guided, minimal}
}

// newLayerRand returns layer i's generator of a network search seeded with
// seed: rand.NewSource(seed + i·1 000 003)'s stream, holding only its draws.
func newLayerRand(seed int64, i int) *rand.Rand {
	return lfg.New(seed + int64(i)*1_000_003)
}

// NewSpatialSearcher builds the network-level mapping search for one spatial
// hardware configuration. Layer searches are seeded deterministically from
// seed so co-search runs are reproducible. The Algo is ignored (see Algo).
func NewSpatialSearcher(eng SpatialEngine, cfg hw.Spatial, w workload.Workload, _ Algo, seed int64) *NetworkSearcher {
	return NewNetwork(w).Spatial(eng, cfg, seed)
}

// Spatial builds the network's mapping search for one spatial hardware
// configuration, one annealer per layer, as NewSpatialSearcher does. An
// engine that offers spatialBinder is bound to cfg here, once for the job.
func (n *Network) Spatial(eng SpatialEngine, cfg hw.Spatial, seed int64) *NetworkSearcher {
	moves := n.spatialMoves()
	layers := make([]LayerSearcher, len(moves))
	s := n.searcher(layers, eng.Area(cfg), &maestroMeter)
	job := &spatialJob{eng: eng, cfg: cfg, tally: &s.tally}
	if b, ok := eng.(spatialBinder); ok && n.valid {
		job.bound, job.bind = b.Bind(cfg), true
	}
	probs := make([]spatialProblem, len(moves))
	for i := range probs {
		probs[i] = spatialProblem{job: job, moves: &moves[i]}
		layers[i] = NewAnnealer[mapping.Spatial](&probs[i], newLayerRand(seed, i))
	}
	return s
}
