package mapsearch

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// drrOracle is the per-searcher deficit round-robin the shared layer order
// replaced, kept verbatim as the order's oracle: each searcher weighed its
// layers by MACs × repeats and ran nextLayer for itself, from zero credits,
// once per step after the bootstrap unit.
type drrOracle struct {
	weights, credits []float64
}

func newDRROracle(w workload.Workload) *drrOracle {
	weights := make([]float64, len(w.Layers))
	for i, l := range w.Layers {
		weights[i] = float64(l.MACs() * int64(l.Repeat))
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
		norm[i] = math.Max(norm[i], 0.25/float64(len(weights)))
	}
	return &drrOracle{weights: norm, credits: make([]float64, len(weights))}
}

func (n *drrOracle) nextLayer() int {
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

// cloudMapping is the combined six-network Cloud workload of paper Table 2.
func cloudMapping(t *testing.T) workload.Workload {
	var ws []workload.Workload
	for _, name := range []string{"ResNet", "VGG", "Bert", "Xception", "UNet", "VIT"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return workload.Combine(ws)
}

// TestLayerOrderMatchesDeficitRoundRobin holds the shared order to the old
// per-searcher loop for every zoo workload and the combined cloud set, over
// 300 units, whether it is extended in one call or in uneven pieces.
func TestLayerOrderMatchesDeficitRoundRobin(t *testing.T) {
	const units = 300
	rng := rand.New(rand.NewSource(26))
	for _, w := range append(workload.All(), cloudMapping(t)) {
		net := NewNetwork(w)
		oracle := newDRROracle(w)
		want := make([]int32, units*len(w.Layers))
		for j := range want {
			want[j] = int32(oracle.nextLayer())
		}
		pieces := NewNetwork(w)
		for n := 0; n < units; n += rng.Intn(4) {
			pieces.order.upTo(n)
		}
		for name, got := range map[string][][]int32{"one call": net.order.upTo(units), "pieces": pieces.order.upTo(units)} {
			var flat []int32
			for _, u := range got {
				flat = append(flat, u...)
			}
			for j := range want {
				if flat[j] != want[j] {
					t.Fatalf("%s (%s): step %d is layer %d, want %d", w.Name, name, j, flat[j], want[j])
				}
			}
		}
	}
	// The cloud set's order up to b_max = 300, the furthest a cloud_mapping
	// job reads, stays within 120 KiB even when every unit is computed on
	// its own.
	net := NewNetwork(cloudMapping(t))
	for n := 0; n < units; n++ {
		net.order.upTo(n)
	}
	bytes := 24 * cap(net.order.units)
	for _, u := range net.order.units {
		bytes += 4 * cap(u)
	}
	if kib := float64(bytes) / 1024; kib > 120 {
		t.Errorf("cloud order holds %.1f KiB at %d units, want <= 120", kib, units)
	}
}

// TestNetworkSharedBySearchers advances searchers that share one Network
// concurrently, in shuffled installments, and holds their trajectories to
// those of solo searchers built by the one-network constructors, bit for
// bit. Run it under -race: the shared order is read while it grows.
func TestNetworkSharedBySearchers(t *testing.T) {
	mobile := workload.MobileNetV3Small()
	dleu := workload.DLEU()
	space := hw.NewSpatialSpace(hw.Edge)
	cfgRng := rand.New(rand.NewSource(3))
	type job struct {
		shared, solo *NetworkSearcher
		installments []int
	}
	var jobs []job
	spatial := NewNetwork(mobile)
	for i := 0; i < 6; i++ {
		cfg := space.Decode(space.Sample(cfgRng))
		jobs = append(jobs, job{
			shared: spatial.Spatial(maestro.Engine{}, cfg, int64(i)),
			solo:   NewSpatialSearcher(maestro.Engine{}, cfg, mobile, FlexTensorLike, int64(i)),
		})
	}
	ascend := NewNetwork(dleu)
	for i := 0; i < 2; i++ {
		cfg := hw.DefaultAscend()
		cfg.L1KB <<= i
		jobs = append(jobs, job{
			shared: ascend.Ascend(camodel.Engine{}, cfg, int64(i)),
			solo:   NewAscendSearcher(camodel.Engine{}, cfg, dleu, DepthFirst, int64(i)),
		})
	}
	const budget = 24
	for i := range jobs {
		for left := budget; left > 0; {
			b := min(left, 1+cfgRng.Intn(7))
			jobs[i].installments = append(jobs[i].installments, b)
			left -= b
		}
		cfgRng.Shuffle(len(jobs[i].installments), func(a, b int) {
			jobs[i].installments[a], jobs[i].installments[b] = jobs[i].installments[b], jobs[i].installments[a]
		})
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for _, b := range j.installments {
				j.shared.Advance(b)
			}
		}(jobs[i])
	}
	for _, j := range jobs {
		j.solo.Advance(budget)
	}
	wg.Wait()
	for i, j := range jobs {
		if !sameBits(j.shared.History(), j.solo.History()) {
			t.Errorf("job %d: shared-order History differs from solo", i)
		}
		if !sameBits(j.shared.RawHistory(), j.solo.RawHistory()) {
			t.Errorf("job %d: shared-order RawHistory differs from solo", i)
		}
	}
}

// sameBits reports whether two trajectories agree in every budget and every
// bit of every float.
func sameBits(a, b ppa.History) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Budget != q.Budget {
			return false
		}
		for k, x := range []float64{p.Loss, p.M.LatencyMs, p.M.PowerMW, p.M.AreaMM2, p.M.EnergyUJ} {
			y := []float64{q.Loss, q.M.LatencyMs, q.M.PowerMW, q.M.AreaMM2, q.M.EnergyUJ}[k]
			if math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// fixedLayer is a layer searcher whose best and last candidates are given.
type fixedLayer struct {
	best, last       ppa.Metrics
	hasBest, hasLast bool
}

func (f *fixedLayer) Step()                     {}
func (f *fixedLayer) Best() (ppa.Metrics, bool) { return f.best, f.hasBest }
func (f *fixedLayer) Last() (ppa.Metrics, bool) { return f.last, f.hasLast }
func (f *fixedLayer) Evals() int                { return 0 }

// addScaleFold is the network aggregate as it was computed before: a fold
// of the layer metrics, each scaled by its repeats, under an Add that sums
// latency and energy, keeps the larger area and recomputes power from the
// totals; the network's area then replaces the fold's.
func addScaleFold(ms []ppa.Metrics, repeats []int, area float64) ppa.Metrics {
	var total ppa.Metrics
	for i, m := range ms {
		n := float64(repeats[i])
		scaled := ppa.Metrics{LatencyMs: float64(m.LatencyMs * n), PowerMW: m.PowerMW, AreaMM2: m.AreaMM2, EnergyUJ: float64(m.EnergyUJ * n)}
		sum := ppa.Metrics{
			LatencyMs: total.LatencyMs + scaled.LatencyMs,
			EnergyUJ:  total.EnergyUJ + scaled.EnergyUJ,
			AreaMM2:   math.Max(total.AreaMM2, scaled.AreaMM2),
		}
		if sum.LatencyMs > 0 {
			sum.PowerMW = sum.EnergyUJ / sum.LatencyMs
		}
		total = sum
	}
	total.AreaMM2 = area
	return total
}

// TestAggregateMatchesAddScaleFold holds the network aggregate, of the
// layers' bests and of their last candidates, bit for bit to addScaleFold
// over seeded layer metrics spanning nine decades: one layer, repeated
// layers, zero latencies, and layers with no best or no candidate at all.
func TestAggregateMatchesAddScaleFold(t *testing.T) {
	cases := []struct {
		name    string
		repeats []int
		edit    func(ls []*fixedLayer)
	}{
		{"one layer", []int{1}, nil},
		{"one repeated layer", []int{3}, nil},
		{"repeats", []int{1, 2, 4, 1, 3, 7}, nil},
		{"zero latency", []int{2, 1, 1}, func(ls []*fixedLayer) {
			ls[1].best.LatencyMs, ls[1].last.LatencyMs = 0, 0
		}},
		{"all zero latency", []int{1, 2}, func(ls []*fixedLayer) {
			for _, l := range ls {
				l.best.LatencyMs, l.last.LatencyMs = 0, 0
			}
		}},
		{"no last", []int{1, 3, 1}, func(ls []*fixedLayer) { ls[0].hasLast = false }},
		{"no best", []int{1, 2, 1}, func(ls []*fixedLayer) { ls[2].hasBest = false }},
		{"neither", []int{2, 1}, func(ls []*fixedLayer) { ls[1].hasBest, ls[1].hasLast = false, false }},
	}
	rng := rand.New(rand.NewSource(45))
	metrics := func() ppa.Metrics {
		v := func() float64 { return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(10)-5)) }
		return ppa.Metrics{LatencyMs: v(), PowerMW: v(), AreaMM2: v(), EnergyUJ: v()}
	}
	for _, c := range cases {
		for trial := 0; trial < 50; trial++ {
			ls := make([]*fixedLayer, len(c.repeats))
			layers := make([]LayerSearcher, len(ls))
			for i := range ls {
				ls[i] = &fixedLayer{best: metrics(), last: metrics(), hasBest: true, hasLast: true}
				layers[i] = ls[i]
			}
			if c.edit != nil {
				c.edit(ls)
			}
			ns := &NetworkSearcher{layers: layers, repeats: c.repeats, area: rng.Float64()}
			for _, raw := range []bool{false, true} {
				picked, wantOK := make([]ppa.Metrics, len(ls)), true
				for i, l := range ls {
					switch {
					case raw && l.hasLast:
						picked[i] = l.last
					case l.hasBest:
						picked[i] = l.best
					default:
						wantOK = false
					}
				}
				got, ok := ns.aggregate(raw)
				if ok != wantOK {
					t.Fatalf("%s, trial %d, raw %v: ok %v, want %v", c.name, trial, raw, ok, wantOK)
				}
				if want := addScaleFold(picked, c.repeats, ns.area); ok && got != want {
					t.Fatalf("%s, trial %d, raw %v: aggregate %+v, want %+v", c.name, trial, raw, got, want)
				}
			}
		}
	}
}
