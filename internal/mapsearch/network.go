package mapsearch

import (
	"context"
	"math"
	"math/rand"

	"unico/internal/perfprof"
	"unico/internal/ppa"
	"unico/internal/telemetry"
)

// stepCount is the global layer-step counter (one increment per
// LayerSearcher.Step across every concurrent search).
var stepCount = telemetry.MapSearchSteps()

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

// lazySource is rand.NewSource(seed) that puts off the seeding — 607 words of
// additive-lagged-Fibonacci state, most of what building a layer search
// costs — until the first draw: the same seed gives the same stream, but the
// work leaves job construction, which the co-search runs serially, for the
// layer's first random step, which successive halving runs in parallel.
type lazySource struct {
	seed int64
	src  rand.Source64
}

// newLayerRand returns layer i's generator of a network search seeded with
// seed: rand.New(rand.NewSource(seed + i·1 000 003)), seeded on first draw.
func newLayerRand(seed int64, i int) *rand.Rand {
	return rand.New(&lazySource{seed: seed + int64(i)*1_000_003})
}

func (s *lazySource) seeded() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64 { return s.seeded().Uint64() }
func (s *lazySource) Seed(seed int64) {
	s.seed, s.src = seed, nil
}

// NetworkSearcher drives one LayerSearcher per distinct layer shape and
// exposes the aggregate network metrics.
//
// One budget unit is one *network mapping evaluation*: len(layers) layer
// steps, so a budget of b explores b schedule candidates per layer — the
// budget convention of the paper (b_max = 300 candidate schedules). Within a
// unit, steps are distributed across layers proportionally to their share of
// the network's total MACs (a large layer deserves more schedule tuning) via
// a deficit-round-robin credit scheme; the very first unit steps every layer
// exactly once so the seed schedules establish feasibility immediately.
type NetworkSearcher struct {
	layers  []LayerSearcher
	repeats []int
	weights []float64
	credits []float64
	area    float64 // hardware area, constant across mappings
	spent   int
	hist    ppa.History
	rawHist ppa.History
}

// NewNetworkSearcher assembles a network-level searcher. weights must be the
// per-layer MAC shares (any positive scale); area is the hardware area
// reported in aggregate metrics.
func NewNetworkSearcher(layers []LayerSearcher, repeats []int, weights []float64, area float64) *NetworkSearcher {
	if len(layers) != len(repeats) || len(layers) != len(weights) {
		panic("mapsearch: layers, repeats and weights must be parallel")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		if total > 0 {
			norm[i] = w / total
		} else {
			norm[i] = 1 / float64(len(weights))
		}
		// Every layer keeps a minimum share so small layers still converge.
		norm[i] = math.Max(norm[i], 0.25/float64(len(weights)))
	}
	return &NetworkSearcher{
		layers:  layers,
		repeats: repeats,
		weights: norm,
		credits: make([]float64, len(layers)),
		area:    area,
	}
}

// Advance spends budget more units (budget × len(layers) layer steps).
func (n *NetworkSearcher) Advance(budget int) {
	if budget > 0 {
		stepCount.Add(uint64(budget) * uint64(len(n.layers)))
	}
	for u := 0; u < budget; u++ {
		if n.spent == 0 {
			// Bootstrap pass: every layer evaluates its first (seed)
			// schedule, establishing feasibility in one unit.
			for _, ls := range n.layers {
				ls.Step()
			}
		} else {
			for s := 0; s < len(n.layers); s++ {
				n.layers[n.nextLayer()].Step()
			}
		}
		n.spent++
		met, ok := n.aggregate()
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
		if raw, ok := n.rawAggregate(); ok {
			n.rawHist = append(n.rawHist, ppa.Point{
				Budget: n.spent, Loss: Loss(raw), M: raw,
			})
		} else {
			n.rawHist = append(n.rawHist, ppa.Point{Budget: n.spent, Loss: PenaltyLoss})
		}
	}
}

// AdvanceContext spends up to budget units, stopping between units once ctx
// is canceled. Uncanceled it is identical to Advance, unit for unit, so
// enabling cancellation never perturbs a run's determinism.
func (n *NetworkSearcher) AdvanceContext(ctx context.Context, budget int) {
	for u := 0; u < budget; u++ {
		if ctx.Err() != nil {
			return
		}
		n.Advance(1)
	}
}

// rawAggregate sums each layer's last evaluated candidate, using the
// layer's best as stand-in when the last evaluation was infeasible; ok is
// false while any layer has neither.
func (n *NetworkSearcher) rawAggregate() (ppa.Metrics, bool) {
	var total ppa.Metrics
	for i, ls := range n.layers {
		met, ok := ls.Last()
		if !ok {
			met, ok = ls.Best()
		}
		if !ok {
			return ppa.Metrics{}, false
		}
		total = total.Add(met.Scale(n.repeats[i]))
	}
	total.AreaMM2 = n.area
	return total, true
}

// PPAEvals returns the number of cost-model evaluations spent (budget units
// times layers).
func (n *NetworkSearcher) PPAEvals() int {
	total := 0
	for _, ls := range n.layers {
		total += ls.Evals()
	}
	return total
}

// nextLayer implements deficit round-robin over MAC shares.
func (n *NetworkSearcher) nextLayer() int {
	best := 0
	for i := range n.credits {
		n.credits[i] += n.weights[i]
		if n.credits[i] > n.credits[best] {
			best = i
		}
	}
	n.credits[best] -= 1
	return best
}

// aggregate sums the per-layer bests (scaled by repeats); ok is false while
// any layer lacks a feasible mapping.
func (n *NetworkSearcher) aggregate() (ppa.Metrics, bool) {
	var total ppa.Metrics
	for i, ls := range n.layers {
		met, ok := ls.Best()
		if !ok {
			return ppa.Metrics{}, false
		}
		total = total.Add(met.Scale(n.repeats[i]))
	}
	total.AreaMM2 = n.area
	return total, true
}

// History returns the best-so-far trajectory.
func (n *NetworkSearcher) History() ppa.History { return n.hist }

// Spent returns the budget units spent so far.
func (n *NetworkSearcher) Spent() int { return n.spent }

// Best returns the aggregate metrics of the per-layer bests.
func (n *NetworkSearcher) Best() (ppa.Metrics, bool) { return n.aggregate() }

// RawHistory returns the non-monotone raw sample trajectory.
func (n *NetworkSearcher) RawHistory() ppa.History { return n.rawHist }
