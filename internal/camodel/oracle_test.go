package camodel

import (
	"math/rand"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/workload"
)

// triple is one (core, schedule, layer) input of Evaluate.
type triple struct {
	c hw.Ascend
	m mapping.Ascend
	l workload.Layer
}

// drawTriple draws a random core of the design space, a zoo layer and a
// schedule for it: uniformly random, or on odd i cube-sized tiles scaled by
// a small power of two — the schedules that fit, so the tile-step
// simulation is exercised too.
func drawTriple(rng *rand.Rand, space *hw.AscendSpace, layers []workload.Layer, i int) triple {
	c := space.Decode(space.Sample(rng))
	l := layers[rng.Intn(len(layers))]
	m := mapping.RandomAscend(rng, l)
	if i%2 == 1 {
		s := 1 << rng.Intn(3)
		m.TM, m.TK, m.TN = c.CubeM*s, c.CubeK*s, c.CubeN*s
		m = m.Canon(l)
	}
	return triple{c, m, l}
}

// zooLayers returns every layer of the workload zoo, in zoo order.
func zooLayers() []workload.Layer {
	var layers []workload.Layer
	for _, w := range workload.All() {
		layers = append(layers, w.Layers...)
	}
	return layers
}

// explicitTriples returns n seeded feasible triples whose whole walk is
// simulated (at most maxExplicitSteps tile steps), so no extrapolation
// stands between a change to the core and the latency.
func explicitTriples(t *testing.T, seed int64, n int) []triple {
	t.Helper()
	var e Engine
	space := hw.NewAscendSpace()
	layers := zooLayers()
	rng := rand.New(rand.NewSource(seed))
	var out []triple
	for i := 0; len(out) < n; i++ {
		tr := drawTriple(rng, space, layers, i)
		if steps, _ := tileSteps(tr.m, tr.l); steps > maxExplicitSteps {
			continue
		}
		if _, err := e.Evaluate(tr.c, tr.m, tr.l); err == nil {
			out = append(out, tr)
		}
	}
	return out
}

// doubleBanks doubles every L0 bank-group count.
func doubleBanks(c *hw.Ascend) {
	c.L0ABanks, c.L0BBanks, c.L0CBanks = 2*c.L0ABanks, 2*c.L0BBanks, 2*c.L0CBanks
}

// TestDoublingNeverSlower doubles one resource of the core on feasible,
// explicitly walked triples. The schedule must still fit, the latency must
// not rise, and the energy may rise by no more than the added SRAM's
// leakage over the run (the dynamic energy reads none of these resources).
// Each case names a mutation it was shown to catch.
//   - Every L0 bank-group count: more banks can only turn overlap on and
//     shrink the exposed fill share. Caught: the exposed arbitration share
//     grows with the banks (l0FillA*float64(c.L0ABanks)/4 in place of
//     l0FillA/float64(2*c.L0ABanks)).
//   - UB: it still holds the output tile, and the vector unit only gets
//     faster. Caught: the doubled vector bandwidth applies below 256 KB
//     (c.UBKB < 256 in place of c.UBKB >= 256).
//   - L1: the latency is unchanged, and the energy does rise by about its
//     leakage, since leakage scales with every SRAM: "a larger L1 never
//     raises energy" does not hold. Caught: the leakage counts L1 twice
//     (float64(c.TotalSRAMKB()+c.L1KB)*sramLeakMWKB).
func TestDoublingNeverSlower(t *testing.T) {
	cases := []struct {
		name   string
		double func(*hw.Ascend)
	}{
		{"bank groups", doubleBanks},
		{"UB", func(c *hw.Ascend) { c.UBKB *= 2 }},
		{"L1", func(c *hw.Ascend) { c.L1KB *= 2 }},
	}
	var e Engine
	triples := explicitTriples(t, 7, 5000)
	for _, tc := range cases {
		for _, tr := range triples {
			more := tr.c
			tc.double(&more)
			a, _ := e.Evaluate(tr.c, tr.m, tr.l)
			b, err := e.Evaluate(more, tr.m, tr.l)
			if err != nil {
				t.Fatalf("%v, %+v, %s: doubled %s made it infeasible: %v", tr.c, tr.m, tr.l.Name, tc.name, err)
			}
			if b.LatencyMs > a.LatencyMs {
				t.Fatalf("%v, %+v, %s: doubled %s raised latency %v -> %v", tr.c, tr.m, tr.l.Name, tc.name, a.LatencyMs, b.LatencyMs)
			}
			leak := float64(more.TotalSRAMKB()-tr.c.TotalSRAMKB()) * sramLeakMWKB * b.LatencyMs
			if rise := b.EnergyUJ - a.EnergyUJ; rise > leak*(1+1e-9)+1e-12*a.EnergyUJ {
				t.Fatalf("%v, %+v, %s: doubled %s raised energy by %v, more than the added leakage %v", tr.c, tr.m, tr.l.Name, tc.name, rise, leak)
			}
		}
	}
}

// TestExtrapolationKnownDeviation pins two feasible triples on which the
// steady-state extrapolation breaks the oracles above: doubling the bank
// groups raises the first's latency by 0.19 %, doubling UB the second's by
// 0.6 %. Both walks are longer than maxExplicitSteps, and neither the
// warm-up sample (step explicit/4) nor the last explicit step falls on a
// whole K-reduction (tilesK is 144 and 728), so the sampled rate depends on
// where the vector chain's updates land in the window. A seeded sweep of
// 200 000 triples (seed 7, drawTriple) finds 137 bank and 528 UB violations,
// every one extrapolated; aligning both steps to a K boundary removes them
// all, but moves every Ascend golden. ROADMAP [camodel-right] records it.
// When the extrapolation is fixed, this test fails: delete it then.
func TestExtrapolationKnownDeviation(t *testing.T) {
	cases := []struct {
		name   string
		c      hw.Ascend
		m      mapping.Ascend
		l      workload.Layer
		double func(*hw.Ascend)
	}{
		{"banks",
			hw.Ascend{L0AKB: 512, L0BKB: 32, L0CKB: 16, L1KB: 512, UBKB: 128, PBKB: 64, ICacheKB: 16,
				L0ABanks: 1, L0BBanks: 2, L0CBanks: 1, CubeM: 4, CubeK: 4, CubeN: 32},
			mapping.Ascend{TM: 2, TK: 4, TN: 1536, FuseDepth: 2, DBufC: true},
			workload.Conv("dec1", 32, 64, 540, 960, 3, 3, 1, 1),
			doubleBanks},
		{"UB",
			hw.Ascend{L0AKB: 8, L0BKB: 256, L0CKB: 16, L1KB: 2048, UBKB: 128, PBKB: 8, ICacheKB: 64,
				L0ABanks: 2, L0BBanks: 1, L0CBanks: 2, CubeM: 8, CubeK: 8, CubeN: 32},
			mapping.Ascend{TM: 512, TK: 1, TN: 12, FuseDepth: 2, DBufB: true},
			workload.Conv("x2_pw", 1024, 728, 10, 10, 1, 1, 1, 1),
			func(c *hw.Ascend) { c.UBKB *= 2 }},
	}
	var e Engine
	for _, tc := range cases {
		if steps, _ := tileSteps(tc.m, tc.l); steps <= maxExplicitSteps {
			t.Fatalf("%s: %d tile steps, want an extrapolated walk", tc.name, steps)
		}
		more := tc.c
		tc.double(&more)
		a, err1 := e.Evaluate(tc.c, tc.m, tc.l)
		b, err2 := e.Evaluate(more, tc.m, tc.l)
		if err1 != nil || err2 != nil {
			t.Fatal(tc.name, err1, err2)
		}
		if b.LatencyMs <= a.LatencyMs {
			t.Errorf("%s: doubling no longer raises latency (%v -> %v): the known deviation is gone", tc.name, a.LatencyMs, b.LatencyMs)
			continue
		}
		t.Logf("%s: doubling raises latency by %+.3f%%", tc.name, 100*(b.LatencyMs/a.LatencyMs-1))
	}
}
