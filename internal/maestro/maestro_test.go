package maestro

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

func testHW() hw.Spatial {
	return hw.Spatial{
		PEX: 8, PEY: 8, L1Bytes: 1728, L2KB: 432,
		NoCBW: 128, Dataflow: hw.WeightStationary,
	}
}

func testLayer() workload.Layer {
	return workload.Conv("l", 64, 32, 28, 28, 3, 3, 1, 1)
}

func minimalMapping(l workload.Layer) mapping.Spatial {
	return mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
}

func TestEvaluateProducesValidMetrics(t *testing.T) {
	var e Engine
	met, err := e.Evaluate(testHW(), minimalMapping(testLayer()), testLayer())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Valid() {
		t.Fatalf("invalid metrics %+v", met)
	}
	if met.AreaMM2 != e.Area(testHW()) {
		t.Errorf("metrics area %v != Area() %v", met.AreaMM2, e.Area(testHW()))
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	var e Engine
	m := minimalMapping(testLayer())
	a, err1 := e.Evaluate(testHW(), m, testLayer())
	b, err2 := e.Evaluate(testHW(), m, testLayer())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a != b {
		t.Errorf("non-deterministic evaluation: %+v vs %+v", a, b)
	}
}

func TestInfeasibleWhenL1Tiny(t *testing.T) {
	var e Engine
	c := testHW()
	c.L1Bytes = 8
	l := testLayer()
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	_, err := e.Evaluate(c, m, l)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleWhenL2Tiny(t *testing.T) {
	var e Engine
	c := testHW()
	c.L2KB = 1
	l := testLayer()
	// Big per-PE tile: the macro working set cannot fit 1 KB of L2.
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	_, err := e.Evaluate(c, m, l)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMoreComputeMoreLatencyAndEnergy(t *testing.T) {
	var e Engine
	small := testLayer()
	big := small
	big.K *= 4
	m := minimalMapping(small)
	ms, err1 := e.Evaluate(testHW(), m, small)
	mb, err2 := e.Evaluate(testHW(), m, big)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if mb.LatencyMs <= ms.LatencyMs {
		t.Errorf("4x-K layer latency %v <= %v", mb.LatencyMs, ms.LatencyMs)
	}
	if mb.EnergyUJ <= ms.EnergyUJ {
		t.Errorf("4x-K layer energy %v <= %v", mb.EnergyUJ, ms.EnergyUJ)
	}
}

func TestBiggerArrayFasterWithSpatialTiles(t *testing.T) {
	var e Engine
	l := testLayer()
	m := mapping.Spatial{TK: 4, TC: 4, TY: 2, TX: 2, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	smallHW := testHW()
	smallHW.PEX, smallHW.PEY = 2, 2
	bigHW := testHW()
	bigHW.PEX, bigHW.PEY = 16, 14
	a, err1 := e.Evaluate(smallHW, m, l)
	b, err2 := e.Evaluate(bigHW, m, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.LatencyMs >= a.LatencyMs {
		t.Errorf("bigger array latency %v >= smaller %v", b.LatencyMs, a.LatencyMs)
	}
}

func TestAreaMonotone(t *testing.T) {
	var e Engine
	base := testHW()
	bigger := base
	bigger.PEX *= 2
	if e.Area(bigger) <= e.Area(base) {
		t.Errorf("area with 2x PEs %v <= %v", e.Area(bigger), e.Area(base))
	}
	moreSRAM := base
	moreSRAM.L2KB *= 4
	if e.Area(moreSRAM) <= e.Area(base) {
		t.Errorf("area with 4x L2 %v <= %v", e.Area(moreSRAM), e.Area(base))
	}
}

func TestDepthwiseCheaperThanDense(t *testing.T) {
	var e Engine
	dense := workload.Conv("d", 64, 64, 28, 28, 3, 3, 1, 1)
	dw := workload.DWConv("w", 64, 28, 28, 3, 3, 1, 1)
	m := minimalMapping(dense)
	a, err1 := e.Evaluate(testHW(), m, dense)
	b, err2 := e.Evaluate(testHW(), minimalMapping(dw), dw)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.EnergyUJ >= a.EnergyUJ {
		t.Errorf("depthwise energy %v >= dense %v", b.EnergyUJ, a.EnergyUJ)
	}
}

func TestEvalCostSeconds(t *testing.T) {
	if (Engine{}).EvalCostSeconds() <= 0 {
		t.Error("default eval cost not positive")
	}
	if (Engine{EvalSeconds: 3}).EvalCostSeconds() != 3 {
		t.Error("override ignored")
	}
}

// TestRandomMappingsNeverPanicProperty drives the engine with arbitrary
// random mappings: every call must either return valid metrics or a clean
// infeasibility error.
func TestRandomMappingsNeverPanicProperty(t *testing.T) {
	var e Engine
	layers := []workload.Layer{
		testLayer(),
		workload.DWConv("dw", 32, 14, 14, 3, 3, 2, 1),
		workload.Gemm("g", 64, 128, 256, 1),
		workload.Conv("patch", 768, 3, 14, 14, 16, 16, 16, 1),
	}
	f := func(seed int64, li uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layers[int(li)%len(layers)]
		m := mapping.RandomSpatial(rng, l)
		met, err := e.Evaluate(testHW(), m, l)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		return met.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWeightStationaryReducesWeightTraffic checks the dataflow lever: for a
// weight-heavy layer, WS should cost no more energy than OS under the same
// mapping (weights pinned in L1).
func TestDataflowChangesCost(t *testing.T) {
	var e Engine
	l := workload.Conv("wh", 256, 256, 7, 7, 3, 3, 1, 1)
	m := minimalMapping(l)
	ws := testHW()
	ws.Dataflow = hw.WeightStationary
	os := testHW()
	os.Dataflow = hw.OutputStationary
	a, err1 := e.Evaluate(ws, m, l)
	b, err2 := e.Evaluate(os, m, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a == b {
		t.Error("dataflow choice had no effect on the cost model")
	}
}

// modelOf runs the model as Evaluate does, canonicalizing m, and keeps the
// breakdown Evaluate drops.
func modelOf(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, breakdown, error) {
	b := Engine{}.Bind(c)
	return b.model(m.Canon(l), &l)
}

// TestModelBreakdown: the breakdown behind a metric is consistent with it.
func TestModelBreakdown(t *testing.T) {
	c, l := testHW(), testLayer()
	m := minimalMapping(l)
	met, b, err := modelOf(c, m, l)
	if err != nil {
		t.Fatal(err)
	}
	// Latency equals the max resource stream (plus the pipeline-fill term),
	// so no stream's cycles can exceed latency-in-cycles.
	latCycles := met.LatencyMs * ClockGHz * 1e6
	for name, cyc := range map[string]float64{
		"compute": b.computeCycles, "noc": b.nocCycles, "dram": b.dramCycles,
	} {
		if cyc > latCycles {
			t.Errorf("%s cycles %v exceed latency %v", name, cyc, latCycles)
		}
	}
	if util := float64(l.MACs()) / (float64(c.PEs()) * b.computeCycles); util <= 0 || util > 1 {
		t.Errorf("utilization = %v", util)
	}
	// The energy breakdown plus leakage must sum to the reported total.
	sum := b.macPJ + b.l1PJ + b.nocPJ + b.dramPJ + leakageMW(c)*met.LatencyMs*1e6
	if diff := sum*1e-6 - met.EnergyUJ; diff > 1e-6*met.EnergyUJ || diff < -1e-6*met.EnergyUJ {
		t.Errorf("energy breakdown sums to %v µJ, total %v µJ", sum*1e-6, met.EnergyUJ)
	}
	if b.nocBytes <= 0 || b.dramBytes <= 0 {
		t.Errorf("traffic volumes: noc=%v dram=%v", b.nocBytes, b.dramBytes)
	}
}

// TestModelBottleneckShifts: a 1x1-kernel layer with huge channel counts is
// bound by the array on a one-PE machine, and by the NoC or DRAM on a wide
// array with a narrow NoC.
func TestModelBottleneckShifts(t *testing.T) {
	l := workload.Conv("ch", 512, 512, 14, 14, 1, 1, 1, 1)
	m := minimalMapping(l)
	slowNoC := testHW()
	slowNoC.PEX, slowNoC.PEY = 24, 24
	slowNoC.NoCBW = 64
	fast := testHW()
	fast.PEX, fast.PEY = 1, 1
	fast.NoCBW = 128
	_, a, err1 := modelOf(slowNoC, m, l)
	_, b, err2 := modelOf(fast, m, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.computeCycles < b.nocCycles || b.computeCycles < b.dramCycles {
		t.Errorf("1-PE machine is not compute-bound: %+v", b)
	}
	if a.computeCycles >= a.nocCycles && a.computeCycles >= a.dramCycles {
		t.Errorf("24x24 array on a narrow NoC is compute-bound: %+v", a)
	}
}
