package maestro

import (
	"math"
	"testing"

	"unico/internal/hw"
)

// Metamorphic properties of the cost model over seeded feasible triples:
// relations between two evaluations that must hold whatever the magnitudes
// are, so they test the model rather than pin its numbers.

func mustExplain(t *testing.T, tr triple) Report {
	t.Helper()
	rep, err := (Engine{}).Explain(tr.cfg, tr.m, tr.l)
	if err != nil {
		t.Fatalf("%v / %v / %v: %v", tr.cfg, tr.m, tr.l, err)
	}
	return rep
}

// TestMoreL2NeverRaisesDRAMTraffic: a larger L2 keeps more operands
// resident, so off-chip traffic cannot grow; nothing on-chip moves.
func TestMoreL2NeverRaisesDRAMTraffic(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		base := mustExplain(t, tr)
		tr.cfg.L2KB *= 2
		big := mustExplain(t, tr)
		if big.DRAMBytes > base.DRAMBytes {
			t.Fatalf("%v / %v / %v: DRAM traffic %v B rose to %v B with twice the L2",
				tr.cfg, tr.m, tr.l, base.DRAMBytes, big.DRAMBytes)
		}
		if big.NoCBytes != base.NoCBytes || big.ComputeCycles != base.ComputeCycles {
			t.Fatalf("%v / %v / %v: L2 size moved NoC traffic or compute time", tr.cfg, tr.m, tr.l)
		}
	}
}

// TestMoreNoCBandwidthNeverSlowsTheNoC: bandwidth changes how fast the
// traffic streams, never how much of it there is.
func TestMoreNoCBandwidthNeverSlowsTheNoC(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		base := mustExplain(t, tr)
		tr.cfg.NoCBW *= 2
		wide := mustExplain(t, tr)
		if wide.NoCCycles > base.NoCCycles {
			t.Fatalf("%v / %v / %v: NoC time %v rose to %v with twice the bandwidth",
				tr.cfg, tr.m, tr.l, base.NoCCycles, wide.NoCCycles)
		}
		if wide.NoCBytes != base.NoCBytes || wide.DRAMBytes != base.DRAMBytes {
			t.Fatalf("%v / %v / %v: NoC bandwidth moved a traffic volume", tr.cfg, tr.m, tr.l)
		}
		if wide.Metrics.LatencyMs > base.Metrics.LatencyMs {
			t.Fatalf("%v / %v / %v: latency rose with twice the NoC bandwidth", tr.cfg, tr.m, tr.l)
		}
	}
}

// TestComputeTimeCoversTheUsefulWork: the array cannot retire more MACs
// than it has slots for, so utilisation is at most 1 before Explain clamps
// it — padding only ever adds cycles.
func TestComputeTimeCoversTheUsefulWork(t *testing.T) {
	for _, tr := range feasibleTriples(t) {
		rep := mustExplain(t, tr)
		slots := rep.ComputeCycles * float64(tr.cfg.PEs())
		if useful := float64(tr.l.MACs()); slots < useful {
			t.Fatalf("%v / %v / %v: %v MAC slots for %v useful MACs", tr.cfg, tr.m, tr.l, slots, useful)
		}
	}
}

// TestAreaAndLeakageIgnoreTheMapping: silicon and static power belong to the
// hardware. Area is the same bits under every mapping and layer; the leakage
// power behind the report's leakage energy is leakageMW of the hardware.
func TestAreaAndLeakageIgnoreTheMapping(t *testing.T) {
	var e Engine
	areas := map[hw.Spatial]float64{}
	for _, tr := range feasibleTriples(t) {
		rep := mustExplain(t, tr)
		if rep.Metrics.AreaMM2 != e.Area(tr.cfg) {
			t.Fatalf("%v / %v: area %v, Area() says %v", tr.cfg, tr.m, rep.Metrics.AreaMM2, e.Area(tr.cfg))
		}
		if a, ok := areas[tr.cfg]; ok && a != rep.Metrics.AreaMM2 {
			t.Fatalf("%v: area %v under one mapping, %v under another", tr.cfg, a, rep.Metrics.AreaMM2)
		}
		areas[tr.cfg] = rep.Metrics.AreaMM2
		leak := rep.EnergyPJ["leakage"] / (rep.Metrics.LatencyMs * 1e6)
		if want := leakageMW(tr.cfg); math.Abs(leak-want) > 1e-12*want {
			t.Fatalf("%v / %v: leakage power %v mW, hardware leaks %v mW", tr.cfg, tr.m, leak, want)
		}
	}
}
