package mapsearch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// quadProblem is a synthetic 1D problem with known optimum: candidates are
// ints, loss (v-17)^2 + 1 (metrics latency/power derived from it).
type quadProblem struct {
	infeasibleBelow int // candidates below this value are infeasible
}

func (quadProblem) Random(rng *rand.Rand) int { return rng.Intn(64) }
func (quadProblem) Mutate(rng *rand.Rand, v int) int {
	step := rng.Intn(5) - 2
	out := v + step
	if out < 0 {
		out = 0
	}
	if out > 63 {
		out = 63
	}
	return out
}
func (quadProblem) Seeds() []int { return nil }
func (p quadProblem) Evaluate(v int) (ppa.Metrics, error) {
	if v < p.infeasibleBelow {
		return ppa.Metrics{}, errors.New("infeasible")
	}
	d := float64(v - 17)
	loss := d*d + 1
	lat := math.Sqrt(loss)
	return ppa.Metrics{LatencyMs: lat, PowerMW: lat, AreaMM2: 1, EnergyUJ: lat * lat}, nil
}

func TestAnnealerConvergesOnQuadratic(t *testing.T) {
	p := quadProblem{}
	a := NewAnnealer[int](p, rand.New(rand.NewSource(1)))
	for i := 0; i < 400; i++ {
		a.Step()
	}
	met, ok := a.Best()
	if !ok {
		t.Fatal("no feasible candidate found")
	}
	if Loss(met) > 30 { // optimum loss = 1*1*1 = 1 EDP-ish
		t.Errorf("annealer final loss %v too high", Loss(met))
	}
	if a.Evals() != 400 {
		t.Errorf("Evals() = %d, want 400", a.Evals())
	}
	if !a.hasBest || a.best < 10 || a.best > 24 {
		t.Errorf("best candidate = %d, want near 17", a.best)
	}
}

func TestSearchersToleratePartialInfeasibility(t *testing.T) {
	p := quadProblem{infeasibleBelow: 30} // optimum at boundary v = 30
	a := NewAnnealer[int](p, rand.New(rand.NewSource(3)))
	for i := 0; i < 300; i++ {
		a.Step()
	}
	if _, ok := a.Best(); !ok {
		t.Error("annealer found nothing with 50% infeasible space")
	}
}

// seededProblem records whether seeds were evaluated first.
type seededProblem struct {
	quadProblem
	log *[]int
}

func (p seededProblem) Seeds() []int { return []int{40, 41} }
func (p seededProblem) Evaluate(v int) (ppa.Metrics, error) {
	*p.log = append(*p.log, v)
	return p.quadProblem.Evaluate(v)
}

func TestSeedsEvaluatedFirst(t *testing.T) {
	var log []int
	p := seededProblem{log: &log}
	a := NewAnnealer[int](Problem[int](p), rand.New(rand.NewSource(5)))
	a.Step()
	a.Step()
	a.Step()
	if len(log) < 2 || log[0] != 40 || log[1] != 41 {
		t.Errorf("seed order = %v, want [40 41 ...]", log)
	}
}

func TestFeasibleSuffix(t *testing.T) {
	h := ppa.History{
		{Budget: 1, Loss: PenaltyLoss},
		{Budget: 2, Loss: PenaltyLoss},
		{Budget: 3, Loss: 5},
		{Budget: 4, Loss: 3},
	}
	fh := Feasible(h)
	if len(fh) != 2 || fh[0].Loss != 5 {
		t.Errorf("Feasible = %+v", fh)
	}
	if Feasible(ppa.History{{Budget: 1, Loss: PenaltyLoss}}) != nil {
		t.Error("all-penalty history should yield nil")
	}
}

// fakeLayer is a trivial always-feasible layer searcher for NetworkSearcher
// unit tests.
type fakeLayer struct {
	evals int
	loss  float64
}

func (f *fakeLayer) Step() {
	f.evals++
	if f.loss > 1 {
		f.loss *= 0.9
	}
}
func (f *fakeLayer) Best() (ppa.Metrics, bool) {
	if f.evals == 0 {
		return ppa.Metrics{}, false
	}
	return ppa.Metrics{LatencyMs: f.loss, PowerMW: 1, AreaMM2: 1, EnergyUJ: f.loss}, true
}
func (f *fakeLayer) Last() (ppa.Metrics, bool) { return f.Best() }
func (f *fakeLayer) Evals() int                { return f.evals }

func TestNetworkSearcherBudgetSemantics(t *testing.T) {
	layers := []LayerSearcher{&fakeLayer{loss: 100}, &fakeLayer{loss: 50}, &fakeLayer{loss: 10}}
	ns := &NetworkSearcher{layers: layers, repeats: []int{1, 2, 1}, order: newLayerOrder([]float64{100, 10, 1}), area: 3.5}
	ns.Advance(10)
	if ns.Spent() != 10 {
		t.Errorf("Spent() = %d", ns.Spent())
	}
	// One budget unit = len(layers) layer steps.
	steps := 0
	for _, l := range layers {
		steps += l.Evals()
	}
	if steps != 30 {
		t.Errorf("%d layer steps, want 30", steps)
	}
	// The first (bootstrap) unit must touch every layer once.
	for i, l := range layers {
		if l.(*fakeLayer).evals == 0 {
			t.Errorf("layer %d never stepped", i)
		}
	}
	met, ok := ns.Best()
	if !ok {
		t.Fatal("aggregate infeasible")
	}
	if met.AreaMM2 != 3.5 {
		t.Errorf("area = %v, want platform area 3.5", met.AreaMM2)
	}
	if len(ns.History()) != 10 {
		t.Errorf("history length %d, want 10", len(ns.History()))
	}
	if !ns.History().Monotone() {
		t.Error("history not monotone")
	}
}

// TestNetworkSearcherOnePointPerUnit pins what the fleet wire leans on: a
// NetworkSearcher appends exactly one point to History and one to RawHistory
// per budget unit, the point after unit b carrying Budget b, whatever the
// installments — so a point's budget is its position, and an advance answer
// need not send it (internal/dist/answer.go). A canceled AdvanceContext
// appends nothing.
func TestNetworkSearcherOnePointPerUnit(t *testing.T) {
	mobile := workload.MobileNetV3Small()
	dleu := workload.DLEU()
	searchers := map[string]*NetworkSearcher{
		"spatial": NewSpatialSearcher(maestro.Engine{}, hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96, NoCBW: 64}, mobile, FlexTensorLike, 1),
		"ascend":  NewAscendSearcher(camodel.Engine{}, hw.DefaultAscend(), dleu, DepthFirst, 1),
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ns := range searchers {
		for _, b := range []int{1, 0, 3, 7} {
			ns.Advance(b)
			ns.AdvanceContext(canceled, 2)
			for hname, h := range map[string]ppa.History{"History": ns.History(), "RawHistory": ns.RawHistory()} {
				if len(h) != ns.Spent() {
					t.Fatalf("%s: %d %s points at budget %d", name, len(h), hname, ns.Spent())
				}
				for i, p := range h {
					if p.Budget != i+1 {
						t.Fatalf("%s: %s point %d has budget %d", name, hname, i, p.Budget)
					}
				}
			}
		}
	}
}

func TestNetworkSearcherWeightsBiasBudget(t *testing.T) {
	heavy := &fakeLayer{loss: 100}
	light := &fakeLayer{loss: 100}
	ns := &NetworkSearcher{layers: []LayerSearcher{heavy, light}, repeats: []int{1, 1}, order: newLayerOrder([]float64{100, 1}), area: 1}
	ns.Advance(50)
	if heavy.evals <= light.evals {
		t.Errorf("heavy layer got %d evals <= light %d", heavy.evals, light.evals)
	}
	if light.evals == 0 {
		t.Error("light layer starved")
	}
}

func TestSpatialSearcherEndToEnd(t *testing.T) {
	eng := maestro.Engine{}
	cfg := hw.Spatial{PEX: 6, PEY: 6, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.OutputStationary}
	w := workload.MobileNet()
	ns := NewSpatialSearcher(eng, cfg, w, FlexTensorLike, 11)
	ns.Advance(20)
	met, ok := ns.Best()
	if !ok {
		t.Fatal("no feasible network mapping")
	}
	if !met.Valid() {
		t.Fatalf("invalid metrics %+v", met)
	}
	if !ns.History().Monotone() {
		t.Error("non-monotone history")
	}
	// Resumability: advancing more must not worsen the best.
	before := ns.History().Last().Loss
	ns.Advance(20)
	if after := ns.History().Last().Loss; after > before {
		t.Errorf("loss rose from %v to %v after more budget", before, after)
	}
}

func TestSpatialSearcherDeterministic(t *testing.T) {
	eng := maestro.Engine{}
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96, NoCBW: 64, Dataflow: hw.WeightStationary}
	w := workload.ViT()
	run := func() float64 {
		ns := NewSpatialSearcher(eng, cfg, w, FlexTensorLike, 42)
		ns.Advance(15)
		return ns.History().Last().Loss
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

// TestHistoryMonotoneProperty drives random spatial configs and checks the
// monotone contract of paper Section 3.1 on real searches.
func TestHistoryMonotoneProperty(t *testing.T) {
	eng := maestro.Engine{}
	space := hw.NewSpatialSpace(hw.Edge)
	w := workload.MobileNetV3Small()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := space.Decode(space.Sample(rng))
		ns := NewSpatialSearcher(eng, cfg, w, FlexTensorLike, seed)
		ns.Advance(8)
		return ns.History().Monotone()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAlgoString(t *testing.T) {
	if FlexTensorLike.String() != "flextensor" || DepthFirst.String() != "depthfirst" {
		t.Error("algo strings wrong")
	}
}

// TestNewLayerRandStream pins layer i's stream to rand.NewSource(seed +
// i·1 000 003), past the 607 draws where the generator's storage turns into
// a ring.
func TestNewLayerRandStream(t *testing.T) {
	for i := 0; i < 4; i++ {
		got, want := newLayerRand(9, i), rand.New(rand.NewSource(9+int64(i)*1_000_003))
		for n := 0; n < 700; n++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("layer %d, draw %d: %d, want %d", i, n, g, w)
			}
		}
	}
}
