package mobo

import (
	"math"
	"math/rand"
	"testing"

	"unico/internal/hw"
)

func testSpace() Space { return hw.NewSpatialSpace(hw.Edge) }

// synthObjectives is a smooth synthetic objective over the encoded cube:
// objective 0 has its optimum at x = (0.3, 0.3, ...), the others are
// correlated variants. All values positive.
func synthObjectives(x []float64, n int) []float64 {
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for _, v := range x {
			d := v - 0.3 - 0.1*float64(j)
			sum += d * d
		}
		y[j] = math.Exp(sum) // in [1, e^d]
	}
	return y
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := percentile(v, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(v, 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := percentile(v, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := percentile(nil, 0.95); !math.IsInf(got, 1) {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestScalarizeAugmentedTchebycheff(t *testing.T) {
	norm := []float64{0.2, 0.8}
	lambda := []float64{0.5, 0.5}
	// max(0.1, 0.4) + 0.2*(0.1+0.4) = 0.4 + 0.1 = 0.5.
	if got := scalarize(norm, lambda, 0.2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scalarize = %v, want 0.5", got)
	}
}

func TestSuggestBatchUniqueAndFresh(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 1)
	batch := o.SuggestBatch(12)
	if len(batch) != 12 {
		t.Fatalf("batch size %d", len(batch))
	}
	seen := map[string]bool{}
	for _, x := range batch {
		k := testSpace().Key(x)
		if seen[k] {
			t.Fatal("duplicate candidate within batch")
		}
		seen[k] = true
	}
	// Feed observations back; the next batch must avoid them.
	obs := make([]Observation, len(batch))
	for i, x := range batch {
		obs[i] = Observation{X: x, Y: synthObjectives(x, 3)}
	}
	o.Update(obs)
	for _, x := range o.SuggestBatch(12) {
		if seen[testSpace().Key(x)] {
			t.Fatal("re-suggested an already-evaluated candidate")
		}
	}
}

func TestChampionAdmitsOne(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Rule = Champion
	o := New(testSpace(), cfg, 2)
	batch := o.SuggestBatch(8)
	obs := make([]Observation, len(batch))
	for i, x := range batch {
		obs[i] = Observation{X: x, Y: synthObjectives(x, 3)}
	}
	if got := o.Update(obs); got != 1 {
		t.Errorf("champion admitted %d, want 1", got)
	}
	if o.TrainSize() != 1 {
		t.Errorf("TrainSize = %d", o.TrainSize())
	}
}

func TestAllSamplesAdmitsEverything(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Rule = AllSamples
	o := New(testSpace(), cfg, 3)
	batch := o.SuggestBatch(8)
	obs := make([]Observation, len(batch))
	for i, x := range batch {
		obs[i] = Observation{X: x, Y: synthObjectives(x, 3)}
	}
	if got := o.Update(obs); got != len(batch) {
		t.Errorf("all-samples admitted %d, want %d", got, len(batch))
	}
}

func TestHighFidelityUULTightens(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 4)
	if !math.IsInf(o.UUL(), 1) {
		t.Fatalf("initial UUL = %v, want +Inf", o.UUL())
	}
	// Two ordinary batches establish the distance distribution D and a
	// finite UUL.
	for iter := 0; iter < 2; iter++ {
		batch := o.SuggestBatch(10)
		obs := make([]Observation, len(batch))
		for i, x := range batch {
			obs[i] = Observation{X: x, Y: synthObjectives(x, 3)}
		}
		o.Update(obs)
	}
	if math.IsInf(o.UUL(), 1) {
		t.Fatal("UUL never left +Inf")
	}
	if o.UUL() < 0 {
		t.Errorf("UUL = %v", o.UUL())
	}
	// A batch polluted with penalty-grade outliers (the infeasible-hardware
	// case the rule exists to filter): the outliers' v_ParEGO distances
	// exceed UUL, so they must not enter the surrogate's training set.
	before := o.TrainSize()
	batch := o.SuggestBatch(10)
	obs := make([]Observation, len(batch))
	for i, x := range batch {
		if i < 5 {
			obs[i] = Observation{X: x, Y: synthObjectives(x, 3)}
		} else {
			obs[i] = Observation{X: x, Y: []float64{1e12, 1e9, 1e6}}
		}
	}
	admitted := o.Update(obs)
	if admitted > 7 {
		t.Errorf("polluted batch admitted %d/10; outliers not filtered", admitted)
	}
	if admitted < 1 {
		t.Error("polluted batch admitted nothing")
	}
	if o.TrainSize() != before+admitted {
		t.Errorf("TrainSize bookkeeping: %d != %d + %d", o.TrainSize(), before, admitted)
	}
}

func TestHighFidelityNeverStarves(t *testing.T) {
	// Even a batch of terrible samples (all d > UUL) must admit the
	// champion so the surrogate keeps learning.
	o := New(testSpace(), DefaultConfig(2), 5)
	good := o.SuggestBatch(4)
	obs := make([]Observation, len(good))
	for i, x := range good {
		obs[i] = Observation{X: x, Y: []float64{1 + float64(i)*0.01, 1}}
	}
	o.Update(obs) // tightens UUL around tiny distances
	bad := o.SuggestBatch(4)
	badObs := make([]Observation, len(bad))
	for i, x := range bad {
		badObs[i] = Observation{X: x, Y: []float64{1e6 + float64(i), 1e6}}
	}
	if got := o.Update(badObs); got < 1 {
		t.Errorf("terrible batch admitted %d, want >= 1", got)
	}
}

func TestScalarizeParEGOOrdering(t *testing.T) {
	o := New(testSpace(), DefaultConfig(2), 6)
	// Establish normalization bounds.
	xs := o.SuggestBatch(4)
	obs := []Observation{
		{X: xs[0], Y: []float64{1, 1}},
		{X: xs[1], Y: []float64{100, 100}},
		{X: xs[2], Y: []float64{10, 10}},
		{X: xs[3], Y: []float64{50, 50}},
	}
	o.Update(obs)
	better := o.ScalarizeParEGO([]float64{1, 1})
	worse := o.ScalarizeParEGO([]float64{100, 100})
	if better >= worse {
		t.Errorf("v_ParEGO(better) %v >= v_ParEGO(worse) %v", better, worse)
	}
}

func TestGuidedBeatsRandomOnSmoothObjective(t *testing.T) {
	// With a smooth synthetic landscape, MOBO's suggestions after training
	// should concentrate more probability mass on good regions than blind
	// random sampling. Compare the best scalarized value found.
	space := testSpace()
	eval := func(x []float64) []float64 { return synthObjectives(x, 3) }

	run := func(guided bool, seed int64) float64 {
		o := New(space, DefaultConfig(3), seed)
		rng := rand.New(rand.NewSource(seed * 31))
		best := math.Inf(1)
		for iter := 0; iter < 8; iter++ {
			var xs [][]float64
			if guided {
				xs = o.SuggestBatch(10)
			} else {
				for i := 0; i < 10; i++ {
					xs = append(xs, space.Sample(rng))
				}
			}
			obs := make([]Observation, len(xs))
			for i, x := range xs {
				y := eval(x)
				obs[i] = Observation{X: x, Y: y}
				if y[0] < best {
					best = y[0]
				}
			}
			if guided {
				o.Update(obs)
			}
		}
		return best
	}
	guidedWins := 0
	const trials = 5
	for s := int64(1); s <= trials; s++ {
		if run(true, s) <= run(false, s+100) {
			guidedWins++
		}
	}
	if guidedWins < trials-1 {
		t.Errorf("guided search won only %d/%d trials against random", guidedWins, trials)
	}
}

func TestUpdatePanicsOnWrongDim(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 7)
	defer func() {
		if recover() == nil {
			t.Error("Update accepted wrong objective dimension")
		}
	}()
	x := o.SuggestBatch(1)[0]
	o.Update([]Observation{{X: x, Y: []float64{1, 2}}})
}

func TestNewValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted empty weights")
		}
	}()
	New(testSpace(), Config{}, 1)
}

func TestUpdateRuleString(t *testing.T) {
	if HighFidelity.String() != "high-fidelity" || Champion.String() != "champion" ||
		AllSamples.String() != "all" {
		t.Error("rule strings wrong")
	}
}

// TestPercentileIndexRule pins percentile to element ⌊q·(n−1)⌋ of the sorted
// values, the rule every UUL and golden rests on. Nearest-rank would give
// element 9 at (n 10, q 0.95) and element 1 at (n 2, q 0.95).
func TestPercentileIndexRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 0}, {1, 0.95, 0},
		{2, 0.5, 0}, {2, 0.95, 0},
		{10, 0.5, 4}, {10, 0.95, 8},
		{20, 0.5, 9}, {20, 0.95, 18},
	} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(i * 7 % tc.n) // 0…n−1, shuffled
		}
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile of %d values at q %v = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}
