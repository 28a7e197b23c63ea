package mapsearch

import (
	"math/rand"
	"reflect"
	"testing"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// evaluateOnly is maestro's engine without Bind: a job on it calls
// Evaluate for every candidate, validating the layer and canonicalizing the
// schedule each time.
type evaluateOnly struct{ e maestro.Engine }

func (o evaluateOnly) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	return o.e.Evaluate(c, m, l)
}
func (o evaluateOnly) Area(c hw.Spatial) float64 { return o.e.Area(c) }
func (o evaluateOnly) EvalCostSeconds() float64  { return o.e.EvalCostSeconds() }

// TestBoundJobMatchesEvaluate runs Edge and Cloud jobs twice on the same
// Network, seeds and hardware: once on maestro's engine, which the job binds
// to its configuration, and once on evaluateOnly. History, RawHistory and
// Best must be equal after 3, 37 and 300 units.
func TestBoundJobMatchesEvaluate(t *testing.T) {
	resnet, err := workload.ByName("ResNet")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sc hw.Scenario
		w  workload.Workload
	}{
		{hw.Edge, workload.MobileNetV3Small()},
		{hw.Cloud, resnet},
	} {
		net := NewNetwork(tc.w)
		space := hw.NewSpatialSpace(tc.sc)
		rng := rand.New(rand.NewSource(58))
		feasible := 0
		for trial := 0; trial < 4; trial++ {
			cfg := space.Decode(space.Sample(rng))
			seed := int64(trial + 1)
			bound := net.Spatial(maestro.Engine{}, cfg, seed)
			plain := net.Spatial(evaluateOnly{}, cfg, seed)
			if !jobOf(bound).bind || jobOf(plain).bind {
				t.Fatal("only the job on maestro.Engine binds it")
			}
			spent := 0
			for _, units := range []int{3, 37, 300} {
				bound.Advance(units - spent)
				plain.Advance(units - spent)
				spent = units
				if !reflect.DeepEqual(bound.History(), plain.History()) {
					t.Fatalf("%s %v after %d units: History differs", tc.w.Name, cfg, units)
				}
				if !reflect.DeepEqual(bound.RawHistory(), plain.RawHistory()) {
					t.Fatalf("%s %v after %d units: RawHistory differs", tc.w.Name, cfg, units)
				}
				bm, bok := bound.Best()
				pm, pok := plain.Best()
				if bm != pm || bok != pok {
					t.Fatalf("%s %v after %d units: Best %v %v, through Evaluate %v %v", tc.w.Name, cfg, units, bm, bok, pm, pok)
				}
			}
			if _, ok := bound.Best(); ok {
				feasible++
			}
		}
		if feasible == 0 {
			t.Errorf("%s: no job found a feasible mapping, so the paths compared only penalties", tc.w.Name)
		}
	}
}

// jobOf returns the spatial job behind a network search.
func jobOf(s *NetworkSearcher) *spatialJob {
	return s.layers[0].(*Annealer[mapping.Spatial]).prob.(*spatialProblem).job
}

// TestInvalidLayerIsNotBound: a workload with a layer that does not
// validate is searched through Evaluate, which rejects that layer's every
// candidate with the validation error, as it did before jobs bound their
// engine.
func TestInvalidLayerIsNotBound(t *testing.T) {
	bad := workload.Conv("bad", 8, 8, 4, 4, 3, 3, 1, 1)
	bad.Stride = 0
	w := workload.Workload{Name: "w", Layers: []workload.Layer{workload.Conv("ok", 8, 8, 4, 4, 3, 3, 1, 1), bad}}
	cfg := hw.NewSpatialSpace(hw.Edge).Decode([]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	s := NewNetwork(w).Spatial(maestro.Engine{}, cfg, 1)
	if jobOf(s).bind {
		t.Fatal("a job on a workload with an invalid layer bound its engine")
	}
	s.Advance(5)
	if _, ok := s.Best(); ok {
		t.Error("the invalid layer found a feasible mapping")
	}
	want := bad.Validate()
	if _, err := s.layers[1].(*Annealer[mapping.Spatial]).prob.Evaluate(mapping.Spatial{}); err == nil || err.Error() != want.Error() {
		t.Errorf("invalid layer evaluates to %v, want %v", err, want)
	}
}

// canonChecked is an AscendEngine without Bind — it embeds the interface,
// so a job on it calls Evaluate for every candidate — that counts the
// schedules it is handed which Canon would change.
type canonChecked struct {
	AscendEngine
	nonCanon int
}

func (e *canonChecked) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if m.Canon(l) != m {
		e.nonCanon++
	}
	return e.AscendEngine.Evaluate(c, m, l)
}

// TestAscendBoundJobMatchesEvaluate runs DLEU jobs twice on the same
// Network, seeds and cores: once on camodel's engine, which the job binds
// to its core, and once on canonChecked around it. History, RawHistory,
// Best and Tally must be equal after 1, 37 and 200 units, and every
// schedule a job evaluates must be canonical, which is why the bound path
// may skip Canon.
func TestAscendBoundJobMatchesEvaluate(t *testing.T) {
	net := NewNetwork(workload.DLEU())
	space := hw.NewAscendSpace()
	rng := rand.New(rand.NewSource(62))
	cores := []hw.Ascend{hw.DefaultAscend()}
	for len(cores) < 4 {
		cores = append(cores, space.Decode(space.Sample(rng)))
	}
	feasible := 0
	for i, cfg := range cores {
		seed := int64(i + 1)
		plainEng := &canonChecked{AscendEngine: camodel.Engine{}}
		bound := net.Ascend(camodel.Engine{}, cfg, seed)
		plain := net.Ascend(plainEng, cfg, seed)
		if !ascendJobOf(bound).bind || ascendJobOf(plain).bind {
			t.Fatal("only the job on camodel.Engine binds it")
		}
		spent := 0
		for _, units := range []int{1, 37, 200} {
			bound.Advance(units - spent)
			plain.Advance(units - spent)
			spent = units
			if !reflect.DeepEqual(bound.History(), plain.History()) {
				t.Fatalf("%v after %d units: History differs", cfg, units)
			}
			if !reflect.DeepEqual(bound.RawHistory(), plain.RawHistory()) {
				t.Fatalf("%v after %d units: RawHistory differs", cfg, units)
			}
			bm, bok := bound.Best()
			pm, pok := plain.Best()
			if bm != pm || bok != pok {
				t.Fatalf("%v after %d units: Best %v %v, through Evaluate %v %v", cfg, units, bm, bok, pm, pok)
			}
			if bt, pt := bound.Tally(), plain.Tally(); bt != pt {
				t.Fatalf("%v after %d units: Tally %+v, through Evaluate %+v", cfg, units, bt, pt)
			}
		}
		if plainEng.nonCanon != 0 {
			t.Errorf("%v: %d of %d evaluated schedules were not canonical", cfg, plainEng.nonCanon, plain.Tally().Calls)
		}
		_, ok := bound.Best()
		if ok {
			feasible++
		}
		t.Logf("%v: %+v, feasible %v", cfg, bound.Tally(), ok)
	}
	if feasible == 0 {
		t.Error("no job found a feasible schedule, so the paths compared only penalties")
	}
}

// ascendJobOf returns the Ascend job behind a network search.
func ascendJobOf(s *NetworkSearcher) *ascendJob {
	return s.layers[0].(*DepthFirstFusion).prob.job
}
