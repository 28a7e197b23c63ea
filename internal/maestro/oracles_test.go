package maestro

import (
	"math"
	"testing"

	"unico/internal/hw"
	"unico/internal/ppa"
)

// Metamorphic properties of the cost model over seeded feasible triples:
// relations between two evaluations that must hold whatever the magnitudes
// are, so they test the model rather than pin its numbers.

func mustModel(t *testing.T, tr triple) (ppa.Metrics, breakdown) {
	t.Helper()
	met, b, err := modelOf(tr.cfg, tr.m, tr.l)
	if err != nil {
		t.Fatalf("%v / %v / %v: %v", tr.cfg, tr.m, tr.l, err)
	}
	return met, b
}

// TestMoreL2NeverRaisesDRAMTraffic: a larger L2 keeps more operands
// resident, so off-chip traffic cannot grow; nothing on-chip moves.
func TestMoreL2NeverRaisesDRAMTraffic(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		_, base := mustModel(t, tr)
		tr.cfg.L2KB *= 2
		_, big := mustModel(t, tr)
		if big.dramBytes > base.dramBytes {
			t.Fatalf("%v / %v / %v: DRAM traffic %v B rose to %v B with twice the L2",
				tr.cfg, tr.m, tr.l, base.dramBytes, big.dramBytes)
		}
		if big.nocBytes != base.nocBytes || big.computeCycles != base.computeCycles {
			t.Fatalf("%v / %v / %v: L2 size moved NoC traffic or compute time", tr.cfg, tr.m, tr.l)
		}
	}
}

// TestMoreNoCBandwidthNeverSlowsTheNoC: bandwidth changes how fast the
// traffic streams, never how much of it there is.
func TestMoreNoCBandwidthNeverSlowsTheNoC(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		baseMet, base := mustModel(t, tr)
		tr.cfg.NoCBW *= 2
		wideMet, wide := mustModel(t, tr)
		if wide.nocCycles > base.nocCycles {
			t.Fatalf("%v / %v / %v: NoC time %v rose to %v with twice the bandwidth",
				tr.cfg, tr.m, tr.l, base.nocCycles, wide.nocCycles)
		}
		if wide.nocBytes != base.nocBytes || wide.dramBytes != base.dramBytes {
			t.Fatalf("%v / %v / %v: NoC bandwidth moved a traffic volume", tr.cfg, tr.m, tr.l)
		}
		if wideMet.LatencyMs > baseMet.LatencyMs {
			t.Fatalf("%v / %v / %v: latency rose with twice the NoC bandwidth", tr.cfg, tr.m, tr.l)
		}
	}
}

// TestComputeTimeCoversTheUsefulWork: the array cannot retire more MACs
// than it has slots for, so utilisation is at most 1 — padding only ever
// adds cycles.
func TestComputeTimeCoversTheUsefulWork(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		_, b := mustModel(t, tr)
		slots := b.computeCycles * float64(tr.cfg.PEs())
		if useful := float64(tr.l.MACs()); slots < useful {
			t.Fatalf("%v / %v / %v: %v MAC slots for %v useful MACs", tr.cfg, tr.m, tr.l, slots, useful)
		}
	}
}

// TestAreaAndLeakageIgnoreTheMapping: silicon and static power belong to the
// hardware. Area is the same bits under every mapping and layer; the energy
// beyond the dynamic breakdown is leakageMW of the hardware over the latency.
func TestAreaAndLeakageIgnoreTheMapping(t *testing.T) {
	var e Engine
	areas := map[hw.Spatial]float64{}
	for _, tr := range feasibleTriples(t) {
		met, b := mustModel(t, tr)
		if met.AreaMM2 != e.Area(tr.cfg) {
			t.Fatalf("%v / %v: area %v, Area() says %v", tr.cfg, tr.m, met.AreaMM2, e.Area(tr.cfg))
		}
		if a, ok := areas[tr.cfg]; ok && a != met.AreaMM2 {
			t.Fatalf("%v: area %v under one mapping, %v under another", tr.cfg, a, met.AreaMM2)
		}
		areas[tr.cfg] = met.AreaMM2
		dynamicUJ := (b.macPJ + b.l1PJ + b.nocPJ + b.dramPJ) * 1e-6
		leak := (met.EnergyUJ - dynamicUJ) / met.LatencyMs
		if want := leakageMW(tr.cfg); math.Abs(leak-want) > 1e-9*met.EnergyUJ/met.LatencyMs {
			t.Fatalf("%v / %v: leakage power %v mW, hardware leaks %v mW", tr.cfg, tr.m, leak, want)
		}
	}
}
