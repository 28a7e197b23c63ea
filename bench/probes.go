package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"unico/internal/camodel"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/evalcache"
	"unico/internal/flightrec"
	"unico/internal/gp"
	"unico/internal/hw"
	"unico/internal/linalg"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/pareto"
	"unico/internal/parpool"
	"unico/internal/perfprof"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/robust"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// The probes time direct calls into public functions at fixed, seeded sizes,
// for the layers the trace wrappers cannot isolate (the numerics under
// mobo, the pieces of a cache lookup, one fsynced append, one span emit).
// They are not part of the result contract: a full run prints them under
// "probes" and -out records them, so a per-layer claim has a number to point
// at beside the end-to-end one it must move.

// probeBatches is how many batches each probe times; the batch median is
// reported, so a collection or a scheduling hiccup in one batch does not
// show.
const probeBatches = 7

// prober runs the probes of one process.
type prober struct {
	scratch string
	quick   bool
	rng     *rand.Rand
	out     map[string]metric
}

// calls scales a per-batch call count down for -quick.
func (p *prober) calls(n int) int {
	if p.quick {
		return max(1, n/50)
	}
	return n
}

// perCall times batches of n calls of fn and returns the median batch's time
// per call, in seconds. setup, if non-nil, runs before each batch, untimed.
func (p *prober) perCall(n int, setup, fn func()) float64 {
	n = p.calls(n)
	batches := probeBatches
	if p.quick {
		batches = 1
	}
	per := make([]float64, batches)
	for b := range per {
		if setup != nil {
			setup()
		}
		t0 := now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = now().Sub(t0).Seconds() / float64(n)
	}
	return median(per)
}

func (p *prober) report(name, unit string, seconds float64) {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6, "ns": 1e9}[unit]
	p.out[name] = metric{seconds * scale, unit}
}

func runProbes(o options, scratch string, stdout, stderr io.Writer) int {
	p := &prober{scratch: scratch, quick: o.quick, rng: rand.New(rand.NewSource(o.seed)), out: map[string]metric{}}
	for _, probe := range []func() error{
		p.linalg, p.gp, p.moboUpdate, p.pareto, p.mappingAndEngines, p.evalcache,
		p.mapsearch, p.persistence, p.instrumentation, p.network, p.pools,
	} {
		if err := probe(); err != nil {
			fmt.Fprintln(stderr, "bench: probes:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, p.out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printMetrics(stdout, p.out)
	return 0
}

// spd builds a random well-conditioned symmetric positive-definite matrix,
// B·Bᵀ + n·I.
func (p *prober) spd(n int) *linalg.Matrix {
	b := linalg.New(n, n)
	for i := range b.Data {
		b.Data[i] = p.rng.NormFloat64()
	}
	a := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func (p *prober) vector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = p.rng.NormFloat64()
	}
	return v
}

func (p *prober) linalg() error {
	const n = 256
	a := p.spd(n)
	dst := linalg.New(n, n)
	var err error
	p.report("linalg.cholesky_n256_ms", "ms", p.perCall(10, nil, func() {
		if _, e := linalg.CholeskyInto(dst, a); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	base, err := linalg.Cholesky(a)
	if err != nil {
		return err
	}
	k := p.vector(n)
	p.report("linalg.extend_n256_us", "us", p.perCall(50, nil, func() {
		// The new diagonal dominates k·k, so the bordered matrix stays SPD.
		if _, e := linalg.CholeskyExtend(base, k, 4*float64(n), 0); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	l, v, vv := linalg.New(n, n), p.vector(n), make([]float64, n)
	p.report("linalg.rank1_n256_us", "us", p.perCall(50, nil, func() {
		copy(l.Data, base.Data)
		copy(vv, v)
		if e := linalg.CholeskyUpdate(l, vv); e != nil {
			err = e
		}
	}))
	return err
}

// trainingSet draws n points of the unit hypercube with smooth targets.
func (p *prober) trainingSet(n, d int) ([][]float64, []float64) {
	xs, ys := make([][]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = p.rng.Float64()
			ys[i] += xs[i][j] * xs[i][j]
		}
		ys[i] += 0.01 * p.rng.NormFloat64()
	}
	return xs, ys
}

func (p *prober) gp() error {
	const d = 6
	xs, ys := p.trainingSet(128, d)
	var g *gp.GP
	var err error
	p.report("gp.fit_auto_n128_ms", "ms", p.perCall(3, nil, func() {
		if g, err = gp.FitAuto(xs, ys); err != nil {
			return
		}
	}))
	if err != nil {
		return err
	}
	prev, _ := g.Params()
	p.report("gp.fit_auto_from_n128_ms", "ms", p.perCall(3, nil, func() {
		if _, e := gp.FitAutoFrom(xs, ys, &prev); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	// Extend grows the model, so every batch starts from a fresh 128-point
	// fit and appends the same eight points.
	extra, extraY := p.trainingSet(8, d)
	var grown *gp.GP
	next := 0
	p.report("gp.extend_n128_us", "us", p.perCall(len(extra), func() {
		grown, err = gp.FitWithParams(xs, ys, prev, g.Jitter())
		next = 0
	}, func() {
		if err == nil {
			err = grown.Extend(extra[next%len(extra)], extraY[next%len(extra)])
			next++
		}
	}))
	if err != nil {
		return err
	}
	x := xs[0]
	p.report("gp.predict_n128_ns", "ns", p.perCall(20000, nil, func() { g.Predict(x) }))
	xs512, ys512 := p.trainingSet(512, d)
	g512, err := gp.FitWithParams(xs512, ys512, prev, g.Jitter())
	if err != nil {
		return err
	}
	p.report("gp.predict_n512_ns", "ns", p.perCall(5000, nil, func() { g512.Predict(x) }))
	return nil
}

// moboUpdate times one surrogate update with 256 observations on a fresh
// optimizer: high-fidelity selection, eviction to the training cap and the
// full fit of four surrogates.
func (p *prober) moboUpdate() error {
	space := hw.NewSpatialSpace(hw.Edge)
	obs := make([]mobo.Observation, 256)
	for i := range obs {
		x := space.Sample(p.rng)
		obs[i] = mobo.Observation{X: x, Y: []float64{
			1 + 100*x[0] + p.rng.Float64(), 1 + 50*x[1] + p.rng.Float64(),
			1 + 10*x[2] + p.rng.Float64(), 0.1 + p.rng.Float64(),
		}}
	}
	p.report("mobo.update_n256_ms", "ms", p.perCall(2, nil, func() {
		mobo.New(space, mobo.DefaultConfig(4), 1).Update(obs)
	}))
	return nil
}

func (p *prober) pareto() error {
	cloud := make([][]float64, 1000)
	for i := range cloud {
		cloud[i] = []float64{p.rng.Float64(), p.rng.Float64(), p.rng.Float64()}
	}
	p.report("pareto.front_n1000_us", "us", p.perCall(20, nil, func() { pareto.Front(cloud) }))
	// A hundred mutually non-dominated points: the positive octant of a
	// sphere.
	front := make([][]float64, 100)
	for i := range front {
		v := []float64{p.rng.Float64(), p.rng.Float64(), p.rng.Float64()}
		norm := 0.0
		for _, c := range v {
			norm += c * c
		}
		for j := range v {
			v[j] = 1 - v[j]/(1.001*math.Sqrt(norm))
		}
		front[i] = v
	}
	ref := []float64{1, 1, 1}
	p.report("pareto.hypervolume3_n100_us", "us", p.perCall(20, nil, func() { pareto.Hypervolume(front, ref) }))

	hist := make(ppa.History, 300)
	for i := range hist {
		lat := 100/(1+float64(i)/30) + 5*p.rng.Float64()
		m := ppa.Metrics{LatencyMs: lat, PowerMW: 200 + 20*p.rng.Float64(), AreaMM2: 4}
		m.EnergyUJ = m.LatencyMs * m.PowerMW
		hist[i] = ppa.Point{Budget: i + 1, Loss: mapsearch.Loss(m), M: m}
	}
	p.report("robust.sensitivity_h300_us", "us", p.perCall(200, nil, func() { robust.Sensitivity(hist, robust.DefaultAlpha) }))
	return nil
}

// spatialTriple is one (hardware, mapping, layer) evaluation.
type spatialTriple struct {
	cfg hw.Spatial
	m   mapping.Spatial
	l   workload.Layer
}

// spatialTriples draws n distinct canonical evaluations over MobileNet.
func (p *prober) spatialTriples(n int) []spatialTriple {
	space := hw.NewSpatialSpace(hw.Edge)
	layers := workload.MobileNet().Layers
	seen := map[evalcache.Key]bool{}
	var out []spatialTriple
	for len(out) < n {
		cfg := space.Decode(space.Sample(p.rng))
		for _, l := range layers {
			m := mapping.RandomSpatial(p.rng, l).Canon(l)
			if k := evalcache.SpatialKey(cfg, m, l); !seen[k] {
				seen[k] = true
				out = append(out, spatialTriple{cfg, m, l})
			}
		}
	}
	return out[:n]
}

func (p *prober) mappingAndEngines() error {
	triples := p.spatialTriples(p.calls(4096))
	i := 0
	next := func() spatialTriple { i++; return triples[i%len(triples)] }
	p.report("mapping.mutate_spatial_ns", "ns", p.perCall(20000, nil, func() {
		t := next()
		mapping.MutateSpatial(p.rng, t.m, t.l)
	}))
	p.report("mapping.canon_spatial_ns", "ns", p.perCall(20000, nil, func() {
		t := next()
		t.m.Canon(t.l)
	}))
	eng := maestro.Engine{}
	p.report("maestro.evaluate_ns", "ns", p.perCall(20000, nil, func() {
		t := next()
		_, _ = eng.Evaluate(t.cfg, t.m, t.l) // infeasible mappings are part of the mix
	}))

	aspace := hw.NewAscendSpace()
	alayers := workload.DLEU().Layers
	acfg := aspace.Decode(aspace.Sample(p.rng))
	ams := make([]mapping.Ascend, 256)
	for j := range ams {
		ams[j] = mapping.RandomAscend(p.rng, alayers[j%len(alayers)]).Canon(alayers[j%len(alayers)])
	}
	aeng := camodel.Engine{}
	p.report("camodel.evaluate_ns", "ns", p.perCall(5000, nil, func() {
		i++
		_, _ = aeng.Evaluate(acfg, ams[i%len(ams)], alayers[i%len(alayers)])
	}))
	return nil
}

func (p *prober) evalcache() error {
	// As many distinct triples as one batch makes calls, so a batch through a
	// cold cache is all misses.
	const n = 20000
	triples := p.spatialTriples(p.calls(n))
	i := 0
	next := func() spatialTriple { i++; return triples[i%len(triples)] }
	p.report("evalcache.key_ns", "ns", p.perCall(n, nil, func() {
		t := next()
		evalcache.SpatialKey(t.cfg, t.m, t.l)
	}))

	bare := maestro.Engine{}
	warm := evalcache.Spatial{Inner: bare, Cache: evalcache.New(0)}
	for _, t := range triples {
		_, _ = warm.Evaluate(t.cfg, t.m, t.l)
	}
	p.report("evalcache.hit_ns", "ns", p.perCall(n, nil, func() {
		t := next()
		_, _ = warm.Evaluate(t.cfg, t.m, t.l)
	}))
	// A miss costs the engine call plus what the cache adds around it: every
	// batch runs each distinct triple once through a cold cache, and the
	// bare engine's time on the same triples comes off.
	var cold evalcache.Spatial
	miss := p.perCall(n, func() {
		cold = evalcache.Spatial{Inner: bare, Cache: evalcache.New(0)}
		i = 0
	}, func() {
		t := next()
		_, _ = cold.Evaluate(t.cfg, t.m, t.l)
	})
	engine := p.perCall(n, func() { i = 0 }, func() {
		t := next()
		_, _ = bare.Evaluate(t.cfg, t.m, t.l)
	})
	p.report("evalcache.miss_added_ns", "ns", miss-engine)

	entries := 100_000
	if p.quick {
		entries = 2000
	}
	big := evalcache.New(2 * entries)
	for j := 0; j < entries; j++ {
		var key evalcache.Key
		binary.LittleEndian.PutUint64(key[:], uint64(j)*0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(key[8:], uint64(j))
		m := ppa.Metrics{LatencyMs: float64(j), PowerMW: 1, AreaMM2: 1, EnergyUJ: float64(j)}
		_, _ = big.Do(key, evalcache.EngineMaestro, func() (ppa.Metrics, error) { return m, nil })
	}
	file := filepath.Join(p.scratch, "cache.jsonl")
	var err error
	p.report("evalcache.save_100k_ms", "ms", p.perCall(1, nil, func() {
		if e := big.SaveFile(file); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	p.report("evalcache.load_100k_ms", "ms", p.perCall(1, nil, func() {
		if loaded, e := evalcache.New(2 * entries).LoadFile(file); e != nil || loaded != entries {
			err = fmt.Errorf("loaded %d of %d cache entries: %v", loaded, entries, e)
		}
	}))
	return err
}

func (p *prober) mapsearch() error {
	cfg := hw.Spatial{PEX: 8, PEY: 8, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.OutputStationary}
	mobilenet := workload.MobileNet()
	seed := int64(0)
	p.report("mapsearch.new_spatial_us", "us", p.perCall(200, nil, func() {
		seed++
		mapsearch.NewSpatialSearcher(maestro.Engine{}, cfg, mobilenet, mapsearch.FlexTensorLike, seed)
	}))
	aspace := hw.NewAscendSpace()
	acfg := aspace.Decode(aspace.Sample(p.rng))
	dleu := workload.DLEU()
	p.report("mapsearch.new_ascend_ms", "ms", p.perCall(5, nil, func() {
		seed++
		mapsearch.NewAscendSearcher(camodel.Engine{}, acfg, dleu, mapsearch.DepthFirst, seed)
	}))
	var ns *mapsearch.NetworkSearcher
	p.report("mapsearch.advance_unit_us", "us", p.perCall(300, func() {
		ns = mapsearch.NewSpatialSearcher(maestro.Engine{}, cfg, mobilenet, mapsearch.FlexTensorLike, 1)
	}, func() { ns.Advance(1) }))
	return nil
}

// captured keeps what a small co-search hands its sinks, so the persistence
// probes replay real records.
type captured struct {
	records   []core.IterationRecord
	snapshots []core.SnapshotRecord
	flights   []flightrec.Iteration
}

func (c *captured) AppendIteration(rec core.IterationRecord) error {
	c.records = append(c.records, rec)
	return nil
}

func (c *captured) WriteSnapshot(snap core.SnapshotRecord) error {
	c.snapshots = append(c.snapshots, snap)
	return nil
}

func (c *captured) RecordIteration(it flightrec.Iteration) { c.flights = append(c.flights, it) }

func (p *prober) persistence() error {
	ctx := context.Background()
	var got captured
	plat := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	opt := core.UNICOOptions(4, 20, 10, 1)
	opt.Workers, opt.SearchWorkers = workers, workers
	opt.Checkpoint, opt.Flight = &got, &got
	if res := core.RunContext(ctx, plat, opt); res.CheckpointErr != nil {
		return res.CheckpointErr
	}

	path := filepath.Join(p.scratch, "probe.ckpt")
	ck, err := checkpoint.Create(path)
	if err != nil {
		return err
	}
	defer ck.Close()
	if err := ck.WriteSnapshot(got.snapshots[0]); err != nil {
		return err
	}
	i := 0
	p.report("checkpoint.append_us", "us", p.perCall(len(got.records), nil, func() {
		if e := ck.AppendIteration(got.records[i%len(got.records)]); e != nil {
			err = e
		}
		i++
	}))
	if err != nil {
		return err
	}
	// What is on disk now is the genesis snapshot and a long journal: the
	// state a killed run leaves and a resume has to read.
	p.report("checkpoint.load_ms", "ms", p.perCall(3, nil, func() {
		if _, e := checkpoint.Load(path); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	fr, err := flightrec.Create(filepath.Join(p.scratch, "probe.flight.jsonl"), flightrec.Header{Method: "UNICO", Seed: 1})
	if err != nil {
		return err
	}
	defer fr.Close()
	p.report("flightrec.record_us", "us", p.perCall(len(got.flights), nil, func() {
		fr.RecordIteration(got.flights[i%len(got.flights)])
		i++
	}))
	return fr.Err()
}

func (p *prober) instrumentation() error {
	rec, err := disttrace.NewRecorder(filepath.Join(p.scratch, "spans.jsonl"), "bench")
	if err != nil {
		return err
	}
	span := func() { disttrace.StartSpan("probe", disttrace.SpanContext{}, "client", "probe").End("ok", nil) }
	disttrace.Enable(rec)
	p.report("disttrace.span_on_us", "us", p.perCall(50, nil, span))
	disttrace.Enable(nil)
	if err := rec.Close(); err != nil {
		return err
	}
	p.report("disttrace.span_off_ns", "ns", p.perCall(100000, nil, span))

	// perfprof has no disabled state: the process-wide default mirrors every
	// span into telemetry ("on", what every run pays), and the cheapest it
	// gets is a private profiler that does not ("off").
	phase := func() { perfprof.Begin("bench.probe").End() }
	p.report("perfprof.span_on_ns", "ns", p.perCall(100000, nil, phase))
	restore := perfprof.SetActive(perfprof.New())
	p.report("perfprof.span_off_ns", "ns", p.perCall(100000, nil, phase))
	restore()

	steps := telemetry.MapSearchSteps()
	p.report("telemetry.counter_inc_ns", "ns", p.perCall(1000000, nil, steps.Inc))
	return nil
}

// rtt is the median round trip of n EvaluatePPA requests against base from
// two closed-loop clients.
func (p *prober) rtt(ctx context.Context, base string, triples []spatialTriple, n int) (float64, error) {
	client := dist.NewClient(base, nil)
	var mu sync.Mutex
	var times []float64
	var firstErr error
	parpool.ForEach(workers, workers, func(w int) {
		for i := w; i < n; i += workers {
			t := triples[i%len(triples)]
			t0 := now()
			_, err := client.EvaluatePPAContext(ctx, dist.PPARequest{
				Platform: "spatial", SpatialHW: &t.cfg, SpatialMapping: &t.m, Layer: t.l,
			})
			d := now().Sub(t0).Seconds()
			mu.Lock()
			times = append(times, d)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return median(times), firstErr
}

func (p *prober) network() error {
	ctx := context.Background()
	n := p.calls(1000)
	triples := p.spatialTriples(64)

	worker := httptest.NewServer(dist.NewServer().Handler())
	defer worker.Close()
	direct, err := p.rtt(ctx, worker.URL, triples, n)
	if err != nil {
		return err
	}

	f, err := newFleet(nil)
	if err != nil {
		return err
	}
	defer f.close()
	routed, err := p.rtt(ctx, f.router.URL, triples, n)
	if err != nil {
		return err
	}
	p.report("dist.ppa_rtt_p50_us", "us", direct)
	p.report("fleet.ppa_rtt_p50_us", "us", routed)
	p.report("fleet.ppa_added_p50_us", "us", routed-direct)
	return nil
}

// pools measures what the worker pools cost and buy: the fixed overhead of
// one two-worker ForEach, and the headline co-search at one worker against
// two.
func (p *prober) pools() error {
	p.report("parpool.foreach_w2_overhead_us", "us", p.perCall(2000, nil, func() {
		parpool.ForEach(workers, workers, func(int) {})
	}))

	s, _ := specByName("edge_paper")
	if p.quick {
		s = s.quick()
	}
	e, err := setUp(s, p.scratch, nil)
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()
	walls := map[int][]float64{}
	for rep := 0; rep < 3; rep++ {
		for _, w := range []int{1, workers} {
			cfg := s.config(searchSeed(1, 0), durableFiles{})
			cfg.Workers, cfg.SearchWorkers = w, w
			wall, _, _, err := timedSearch(ctx, e, cfg)
			if err != nil {
				return err
			}
			walls[w] = append(walls[w], wall)
		}
	}
	p.report("core.serial_wall_s", "s", median(walls[1]))
	p.out["core.parallel_speedup_w2"] = metric{median(walls[1]) / median(walls[workers]), "ratio"}
	return nil
}
