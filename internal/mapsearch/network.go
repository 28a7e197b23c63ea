package mapsearch

import (
	"context"
	"math"
	"slices"
	"sync"

	"unico/internal/mapping"
	"unico/internal/perfprof"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// PenaltyLoss is the finite loss recorded while a network has no feasible
// mapping yet (or a hardware configuration admits none at all). Finite so
// that AUC and sorting arithmetic stay well-defined; any real EDP is many
// orders of magnitude below it.
const PenaltyLoss = 1e100

// Feasible returns the suffix of the history starting at the first point
// with a sub-penalty loss. AUC and robustness computations use this view so
// an initial infeasible plateau does not distort them.
func Feasible(h ppa.History) ppa.History {
	for i, p := range h {
		if p.Loss < PenaltyLoss {
			return h[i:]
		}
	}
	return nil
}

// Searcher is a resumable network-level software-mapping search: the object
// the successive-halving scheduler hands budget to, one installment at a
// time.
type Searcher interface {
	// Advance spends budget more PPA evaluations.
	Advance(budget int)
	// History returns the best-so-far trajectory (one point per evaluation
	// spent), monotone non-increasing in loss.
	History() ppa.History
	// Spent returns the total evaluations spent.
	Spent() int
	// Best returns the aggregate metrics of the best mappings found, and
	// whether every layer has a feasible mapping.
	Best() (ppa.Metrics, bool)
	// RawHistory returns the trajectory of raw evaluation samples (the
	// aggregate of each layer's most recent candidate per unit) — the
	// fluctuating loss curve of paper Fig. 5a that the robustness metric R
	// observes. Unlike History it is not monotone.
	RawHistory() ppa.History
	// Tally returns the engine calls and capacity rejections of every
	// evaluation spent so far.
	Tally() Tally
}

// ContextAdvancer is an optional Searcher extension for cancelable budget
// installments: AdvanceContext stops early (leaving the searcher resumable,
// with whatever budget it actually spent recorded) once ctx is canceled.
// Schedulers use it when available so a shutdown signal interrupts long
// advances promptly; with an un-canceled ctx it must behave exactly like
// Advance.
type ContextAdvancer interface {
	AdvanceContext(ctx context.Context, budget int)
}

// AdvanceSearcher advances a searcher through its ContextAdvancer fast path
// when it has one, falling back to the plain (non-cancelable) Advance.
func AdvanceSearcher(ctx context.Context, s Searcher, budget int) {
	_, span := perfprof.Start(ctx, "mapsearch.advance")
	defer span.End()
	if ca, ok := s.(ContextAdvancer); ok {
		ca.AdvanceContext(ctx, budget)
		return
	}
	s.Advance(budget)
}

// NetworkSearcher drives one LayerSearcher per distinct layer shape and
// exposes the aggregate network metrics.
//
// One budget unit is one *network mapping evaluation*: len(layers) layer
// steps, so a budget of b explores b schedule candidates per layer — the
// budget convention of the paper (b_max = 300 candidate schedules). Within a
// unit, steps are distributed across layers proportionally to their share of
// the network's total MACs (a large layer deserves more schedule tuning) in
// the deficit-round-robin order of layerOrder; the very first unit steps
// every layer exactly once so the seed schedules establish feasibility
// immediately.
type NetworkSearcher struct {
	layers  []LayerSearcher
	repeats []int
	order   *layerOrder
	area    float64 // hardware area, constant across mappings
	tally   Tally   // engine calls since the search was built
	spent   int
	hist    ppa.History
	rawHist ppa.History
}

// layerOrder is the deficit-round-robin step order of one workload: each
// step, every layer earns its MAC share in credit and the richest layer
// steps, paying one. The order is a pure function of the shares — not of the
// hardware, the seed or anything a search finds — so every searcher of a
// workload reads one copy. It grows under mu as far as the furthest searcher
// has needed, and is read without copying: a unit once written never
// changes.
type layerOrder struct {
	mu      sync.Mutex
	shares  []float64
	credits []float64
	// units[k] lists the layers unit k+2 steps, in order: the first unit is
	// the bootstrap pass, which steps every layer once and takes no credit.
	units [][]int32
}

// newLayerOrder builds the order for per-layer MAC weights (any positive
// scale).
func newLayerOrder(weights []float64) *layerOrder {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	shares := make([]float64, len(weights))
	for i, w := range weights {
		if total > 0 {
			shares[i] = w / total
		} else {
			shares[i] = 1 / float64(len(weights))
		}
		// Every layer keeps a minimum share so small layers still converge.
		shares[i] = math.Max(shares[i], 0.25/float64(len(weights)))
	}
	return &layerOrder{shares: shares, credits: make([]float64, len(weights))}
}

// upTo returns the step order of the first n units after the bootstrap,
// computing any not yet known.
func (o *layerOrder) upTo(n int) [][]int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if have := len(o.units); n > have {
		l := len(o.shares)
		steps := make([]int32, (n-have)*l)
		for j := range steps {
			best := 0
			for i, share := range o.shares {
				o.credits[i] += share
				if o.credits[i] > o.credits[best] {
					best = i
				}
			}
			o.credits[best]--
			steps[j] = int32(best)
		}
		for k := 0; k < n-have; k++ {
			o.units = append(o.units, steps[k*l:(k+1)*l:(k+1)*l])
		}
	}
	return o.units[:n:n]
}

// Network is the hardware-independent half of a workload's mapping search:
// its layers, their repeat counts, the order budget units step them in, and
// each layer's moves (its tile ladders, and for the Ascend-like core the
// depth-first walk's ladders and the walk itself, which grows as far as the
// furthest job has needed). Build it once per workload and hand it to every
// searcher of that workload, from any goroutine. The moves of a platform
// are built at the first job on it, so a network searched on one platform
// holds only that platform's.
type Network struct {
	w       workload.Workload
	repeats []int
	order   *layerOrder
	valid   bool // every layer validates, so a job may bind its engine

	spatialOnce sync.Once
	spatial     []mapping.SpatialMoves
	ascendOnce  sync.Once
	ascend      []*ascendLayer
}

// NewNetwork prepares the mapping searches of workload w.
func NewNetwork(w workload.Workload) *Network {
	n := &Network{w: w, repeats: make([]int, len(w.Layers)), valid: true}
	weights := make([]float64, len(w.Layers))
	for i, l := range w.Layers {
		n.valid = n.valid && l.Validate() == nil
		n.repeats[i] = l.Repeat
		weights[i] = float64(l.MACs() * int64(l.Repeat))
	}
	n.order = newLayerOrder(weights)
	return n
}

// spatialMoves returns each layer's spatial moves, built at the first call.
func (n *Network) spatialMoves() []mapping.SpatialMoves {
	n.spatialOnce.Do(func() {
		n.spatial = make([]mapping.SpatialMoves, len(n.w.Layers))
		for i, l := range n.w.Layers {
			n.spatial[i] = mapping.NewSpatialMoves(l)
		}
	})
	return n.spatial
}

// ascendLayers returns each layer's Ascend-like moves, walk ladders and
// shared depth-first walk, built at the first call.
func (n *Network) ascendLayers() []*ascendLayer {
	n.ascendOnce.Do(func() {
		n.ascend = make([]*ascendLayer, len(n.w.Layers))
		for i, l := range n.w.Layers {
			n.ascend[i] = newAscendLayer(l)
		}
	})
	return n.ascend
}

// Workload returns the workload the network searches.
func (n *Network) Workload() workload.Workload { return n.w }

// searcher assembles a network search over one searcher per layer.
func (n *Network) searcher(layers []LayerSearcher, area float64) *NetworkSearcher {
	return &NetworkSearcher{layers: layers, repeats: n.repeats, order: n.order, area: area}
}

// Advance spends budget more units (budget × len(layers) layer steps).
func (n *NetworkSearcher) Advance(budget int) { n.advance(budget, nil) }

// AdvanceContext spends up to budget units, stopping between units once ctx
// is canceled. Uncanceled it is identical to Advance, unit for unit, so
// enabling cancellation never perturbs a run's determinism.
func (n *NetworkSearcher) AdvanceContext(ctx context.Context, budget int) {
	n.advance(budget, ctx.Done())
}

// advance spends up to budget units, stopping before the next once done is
// closed (a nil done never is). A receive that does not block takes no
// lock, so the jobs of one context do not contend for it once per unit.
func (n *NetworkSearcher) advance(budget int, done <-chan struct{}) {
	if budget <= 0 {
		return
	}
	order := n.order.upTo(n.spent + budget - 1)
	n.hist = slices.Grow(n.hist, budget)
	n.rawHist = slices.Grow(n.rawHist, budget)
steps:
	for range budget {
		select {
		case <-done:
			break steps
		default:
		}
		if n.spent == 0 {
			// Bootstrap pass: every layer evaluates its first (seed)
			// schedule, establishing feasibility in one unit.
			for _, ls := range n.layers {
				ls.Step()
			}
		} else {
			for _, i := range order[n.spent-1] {
				n.layers[i].Step()
			}
		}
		n.spent++
		met, ok := n.aggregate(false)
		loss := PenaltyLoss
		if ok {
			loss = Loss(met)
		}
		// Keep the history monotone: a layer step can only improve or keep
		// that layer's best, so the aggregate is monotone by construction;
		// clamp anyway to uphold the contract under model quirks.
		if len(n.hist) > 0 && loss > n.hist[len(n.hist)-1].Loss {
			prev := n.hist[len(n.hist)-1]
			loss, met = prev.Loss, prev.M
		}
		n.hist = append(n.hist, ppa.Point{Budget: n.spent, Loss: loss, M: met})

		// Raw sample: the aggregate of each layer's most recent candidate
		// (falling back to its best when the last candidate was
		// infeasible). This is the non-monotone curve R observes.
		if raw, ok := n.aggregate(true); ok {
			n.rawHist = append(n.rawHist, ppa.Point{
				Budget: n.spent, Loss: Loss(raw), M: raw,
			})
		} else {
			n.rawHist = append(n.rawHist, ppa.Point{Budget: n.spent, Loss: PenaltyLoss})
		}
	}
}

// aggregate sums latency and energy of the per-layer bests, each times its
// layer's repeats, in layer order, and derives power from the totals; with
// raw it sums each layer's last evaluated candidate instead, using the
// layer's best as stand-in when the last evaluation was infeasible. ok is
// false while any layer has neither.
func (n *NetworkSearcher) aggregate(raw bool) (ppa.Metrics, bool) {
	total := ppa.Metrics{AreaMM2: n.area}
	for i, ls := range n.layers {
		var met ppa.Metrics
		ok := false
		if raw {
			met, ok = ls.Last()
		}
		if !ok {
			met, ok = ls.Best()
		}
		if !ok {
			return ppa.Metrics{}, false
		}
		// float64(…) keeps each product rounded before the sum: no fused
		// multiply-add, so the totals are the same bits on every platform.
		r := float64(n.repeats[i])
		total.LatencyMs += float64(met.LatencyMs * r)
		total.EnergyUJ += float64(met.EnergyUJ * r)
	}
	if total.LatencyMs > 0 {
		total.PowerMW = total.EnergyUJ / total.LatencyMs
	}
	return total, true
}

// History returns the best-so-far trajectory.
func (n *NetworkSearcher) History() ppa.History { return n.hist }

// Spent returns the budget units spent so far.
func (n *NetworkSearcher) Spent() int { return n.spent }

// Best returns the aggregate metrics of the per-layer bests.
func (n *NetworkSearcher) Best() (ppa.Metrics, bool) { return n.aggregate(false) }

// RawHistory returns the non-monotone raw sample trajectory.
func (n *NetworkSearcher) RawHistory() ppa.History { return n.rawHist }

// Tally returns the engine calls the search has made since it was built.
func (n *NetworkSearcher) Tally() Tally { return n.tally }
