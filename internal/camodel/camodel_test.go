package camodel

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/workload"
)

func testLayer() workload.Layer {
	return workload.Conv("l", 56, 12, 60, 160, 3, 3, 1, 1)
}

func minimalSchedule(c hw.Ascend, l workload.Layer) mapping.Ascend {
	return mapping.Ascend{TM: c.CubeM, TK: c.CubeK, TN: c.CubeN, FuseDepth: 1}.Canon(l)
}

func TestEvaluateProducesValidMetrics(t *testing.T) {
	var e Engine
	c := hw.DefaultAscend()
	met, err := e.Evaluate(c, minimalSchedule(c, testLayer()), testLayer())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Valid() {
		t.Fatalf("invalid metrics %+v", met)
	}
	if met.AreaMM2 != e.Area(c) {
		t.Errorf("metrics area %v != Area() %v", met.AreaMM2, e.Area(c))
	}
}

func TestDeterministic(t *testing.T) {
	var e Engine
	c := hw.DefaultAscend()
	m := minimalSchedule(c, testLayer())
	a, _ := e.Evaluate(c, m, testLayer())
	b, _ := e.Evaluate(c, m, testLayer())
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestDefaultRunsWholeZoo(t *testing.T) {
	var e Engine
	c := hw.DefaultAscend()
	for _, w := range workload.All() {
		for _, l := range w.Layers {
			if _, err := e.Evaluate(c, minimalSchedule(c, l), l); err != nil {
				t.Errorf("%s/%s: %v", w.Name, l.Name, err)
			}
		}
	}
}

func TestInfeasibleChecks(t *testing.T) {
	var e Engine
	l := testLayer()
	c := hw.DefaultAscend()

	small := c
	small.L1KB = 1
	big := mapping.Ascend{TM: 512, TK: 512, TN: 512, FuseDepth: 4}.Canon(l)
	if _, err := e.Evaluate(small, big, l); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tiny L1: err = %v", err)
	}

	noUB := c
	noUB.UBKB = 1
	wide := mapping.Ascend{TM: 56, TK: 16, TN: 4096, FuseDepth: 1}.Canon(l)
	if _, err := e.Evaluate(noUB, wide, l); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tiny UB: err = %v", err)
	}

	noPB := c
	noPB.PBKB = 1
	bigK := workload.Conv("bigk", 4096, 12, 8, 8, 1, 1, 1, 1)
	if _, err := e.Evaluate(noPB, minimalSchedule(noPB, bigK), bigK); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tiny PB: err = %v", err)
	}
}

func TestDoubleBufferingHelpsWithBanks(t *testing.T) {
	var e Engine
	l := testLayer()
	c := hw.DefaultAscend()
	c.L0ABanks, c.L0BBanks, c.L0CBanks = 4, 4, 4
	m := mapping.Ascend{TM: 32, TK: 64, TN: 512, FuseDepth: 1}.Canon(l)
	mdb := m
	mdb.DBufA, mdb.DBufB, mdb.DBufC = true, true, true
	serial, err1 := e.Evaluate(c, m, l)
	overlapped, err2 := e.Evaluate(c, mdb, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if overlapped.LatencyMs >= serial.LatencyMs {
		t.Errorf("double buffering did not help: %v >= %v",
			overlapped.LatencyMs, serial.LatencyMs)
	}
}

func TestLargerL0AHelpsWeightStripeReuse(t *testing.T) {
	var e Engine
	// Wide output (large N), several weight stripes: L0A residency is the
	// lever the paper's Fig. 11 discovery turns.
	l := workload.Conv("wide", 64, 64, 120, 320, 3, 3, 1, 1)
	small := hw.DefaultAscend()
	small.L0AKB = 8
	big := small
	big.L0AKB = 512
	// TK spans the whole 576-deep reduction: the weight stripe is 36 cube
	// tiles (~9 KB), which overflows the 8 KB L0A but not the 512 KB one.
	m := mapping.Ascend{TM: 64, TK: 576, TN: 512, FuseDepth: 1}.Canon(l)
	a, err1 := e.Evaluate(small, m, l)
	b, err2 := e.Evaluate(big, m, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.EnergyUJ >= a.EnergyUJ {
		t.Errorf("larger L0A did not cut L0 fill energy: %v >= %v", b.EnergyUJ, a.EnergyUJ)
	}
}

func TestFusionCutsDDREnergy(t *testing.T) {
	var e Engine
	l := testLayer()
	c := hw.DefaultAscend()
	shallow := mapping.Ascend{TM: 16, TK: 16, TN: 64, FuseDepth: 1}.Canon(l)
	deep := shallow
	deep.FuseDepth = 4
	a, err1 := e.Evaluate(c, shallow, l)
	b, err2 := e.Evaluate(c, deep, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.EnergyUJ >= a.EnergyUJ {
		t.Errorf("fusion did not cut energy: %v >= %v", b.EnergyUJ, a.EnergyUJ)
	}
}

func TestExtrapolationBoundsSimulationTime(t *testing.T) {
	var e Engine
	// A deliberately huge layer with tiny tiles: millions of tile steps,
	// which must be extrapolated, not walked.
	l := workload.Conv("huge", 512, 512, 512, 512, 3, 3, 1, 1)
	c := hw.DefaultAscend()
	m := minimalSchedule(c, l)
	start := time.Now()
	met, err := e.Evaluate(c, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if !met.Valid() {
		t.Fatalf("invalid metrics %+v", met)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("evaluation took %v; extrapolation not bounding work", elapsed)
	}
}

func TestEvalCostIsMinutes(t *testing.T) {
	cost := (Engine{}).EvalCostSeconds()
	if cost < 120 || cost > 600 {
		t.Errorf("CAModel eval cost %v s, want the paper's 2-10 minute range", cost)
	}
}

// TestRandomSchedulesNeverPanicProperty drives the simulator with arbitrary
// schedules across random cores.
func TestRandomSchedulesNeverPanicProperty(t *testing.T) {
	var e Engine
	space := hw.NewAscendSpace()
	l := testLayer()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := space.Decode(space.Sample(rng))
		m := mapping.RandomAscend(rng, l)
		met, err := e.Evaluate(c, m, l)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		return met.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
