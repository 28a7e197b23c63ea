// Package benchmarks holds the repo's canonical benchmark bodies as plain
// func(*testing.B) values, so the same code runs under `go test -bench`
// (thin wrappers in the regular _test files) and under cmd/unicobench via
// testing.Benchmark — which is what lets the bench harness emit a
// schema-versioned BENCH_*.json trajectory from exactly the workloads the
// test suite exercises. The package must stay importable from everywhere
// benches live, so it never imports the root unico package.
package benchmarks

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"unico/internal/camodel"
	"unico/internal/core"
	"unico/internal/gp"
	"unico/internal/hw"
	"unico/internal/linalg"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/platform"
	"unico/internal/simclock"
	"unico/internal/workload"
)

// Case is one named canonical benchmark. Pinned marks the cases the
// kernel gate replays against the committed BENCH_baseline.json.
type Case struct {
	Name   string
	Fn     func(b *testing.B)
	Pinned bool
}

// All returns the canonical benchmark registry in a fixed order: the
// substrate micro-benches first, the end-to-end micro run last (it is the
// slowest and dominates the recorded phase tree). ctx is what that co-search
// runs under.
func All(ctx context.Context) []Case {
	return []Case{
		{Name: "GPFitPredict", Fn: GPFitPredict, Pinned: true},
		{Name: "AcquisitionPool", Fn: AcquisitionPool, Pinned: true},
		{Name: "AcquisitionEdge", Fn: func(b *testing.B) { AcquisitionEdge(ctx, b) }, Pinned: true},
		{Name: "SurrogateRefit", Fn: SurrogateRefit, Pinned: true},
		{Name: "CholeskyBlocked", Fn: CholeskyBlocked, Pinned: true},
		{Name: "Rank1Update", Fn: Rank1Update, Pinned: true},
		{Name: "MaestroEvaluate", Fn: MaestroEvaluate, Pinned: true},
		{Name: "CAModelEvaluate", Fn: CAModelEvaluate, Pinned: true},
		{Name: "CAModelEvaluateLong", Fn: CAModelEvaluateLong, Pinned: true},
		{Name: "MappingSearchUnit", Fn: MappingSearchUnit, Pinned: true},
		{Name: "AscendNewJob", Fn: AscendNewJob, Pinned: true},
		{Name: "SpatialNewJob", Fn: SpatialNewJob, Pinned: true},
		{Name: "SpatialJobFirstUnit", Fn: SpatialJobFirstUnit, Pinned: true},
		{Name: "EndToEndMicro", Fn: func(b *testing.B) { EndToEndMicro(ctx, b) }, Pinned: true},
	}
}

// Pinned returns the cases of the kernel gate (`unicobench -pinned`, which
// is what `make bench-gate` and CI run): the one place the set is defined.
func Pinned(ctx context.Context) []Case {
	var out []Case
	for _, c := range All(ctx) {
		if c.Pinned {
			out = append(out, c)
		}
	}
	return out
}

// GPFitPredict measures surrogate refitting plus a prediction at the
// training sizes MOBO reaches.
func GPFitPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, d := 128, 6
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gp.FitAuto(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		g.Predict(xs[0])
	}
}

// AcquisitionPool measures one acquisition maximization at the size the
// paper's setting reaches: four objectives' surrogates on a full training
// window (n = 150), a 256-candidate pool and three 16-step refinement
// chains, on one search worker. One SuggestBatch(1) is exactly one such
// search; the optimizer is never updated, so every iteration sees the same
// surrogates under a fresh scalarization.
func AcquisitionPool(b *testing.B) {
	const nObj, n = 4, 150
	space := hw.NewSpatialSpace(hw.Edge)
	cfg := mobo.DefaultConfig(nObj)
	cfg.Rule = mobo.AllSamples
	cfg.SearchWorkers = 1
	o := mobo.New(space, cfg, 1)
	obs := paperTrainingSet(space, nObj, n)
	if o.Update(obs) != n || o.TrainSize() != n {
		b.Fatalf("training set has %d points, want %d", o.TrainSize(), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(o.SuggestBatch(1)) != 1 {
			b.Fatal("no suggestion")
		}
	}
}

// AcquisitionEdge measures one acquisition maximization on the surrogates a
// real search leaves: an edge_paper-shaped co-search (Edge, MobileNet,
// N = 30, b_max = 300, seed 1) stopped after 5 iterations, under ctx and
// outside the timer, its optimizer rebuilt by replaying the run's final
// snapshot (as a resume does) and searched with one worker. A real run's
// objectives prune less than AcquisitionPool's smooth bowls.
func AcquisitionEdge(ctx context.Context, b *testing.B) {
	p := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	opt := core.UNICOOptions(30, 5, 300, 1)
	opt.Workers = 2
	sink := new(lastSnapshot)
	opt.Checkpoint = sink
	if res := core.RunContext(ctx, p, opt); res.CheckpointErr != nil {
		b.Fatal(res.CheckpointErr)
	}
	opt.SearchWorkers = 1
	o, err := core.ReplayExplorer(p, opt, &core.ResumeState{Snapshot: sink.snap})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(o.SuggestBatch(1)) != 1 {
			b.Fatal("no suggestion")
		}
	}
}

// lastSnapshot is a checkpoint sink that keeps only the last snapshot.
type lastSnapshot struct{ snap core.SnapshotRecord }

func (s *lastSnapshot) AppendIteration(core.IterationRecord) error { return nil }
func (s *lastSnapshot) WriteSnapshot(snap core.SnapshotRecord) error {
	s.snap = snap
	return nil
}

// paperTrainingSet draws n observations of nObj objectives on the space:
// smooth bowls with different centres and a different amount of noise per
// objective, so the objectives' fits do not all land on one set of
// hyperparameters.
func paperTrainingSet(space mobo.Space, nObj, n int) []mobo.Observation {
	rng := rand.New(rand.NewSource(1))
	obs := make([]mobo.Observation, n)
	for i := range obs {
		x := space.Sample(rng)
		y := make([]float64, nObj)
		for j := range y {
			sum := 0.0
			for _, v := range x {
				d := v - 0.3 - 0.1*float64(j)
				sum += d * d
			}
			y[j] = math.Exp(sum + 0.05*float64(j)*rng.NormFloat64())
		}
		obs[i] = mobo.Observation{X: x, Y: y}
	}
	return obs
}

// SurrogateRefit measures one warm refit of the optimizer's surrogates at
// the paper's size: four objectives on a full training window (n = 150),
// one shared grid fit (gp.FitAutoAll) with every objective warm-started at
// the optimum a cold fit of the same data selected, on one worker — the
// refit every fifth update runs, §1 "surrogate refit".
func SurrogateRefit(b *testing.B) {
	const nObj, n = 4, 150
	obs := paperTrainingSet(hw.NewSpatialSpace(hw.Edge), nObj, n)
	xs := make([][]float64, n)
	ys := make([][]float64, nObj)
	for j := range ys {
		ys[j] = make([]float64, n)
	}
	for i, ob := range obs {
		xs[i] = ob.X
		for j, v := range ob.Y {
			ys[j][i] = math.Log(v)
		}
	}
	cold, err := gp.FitAutoAll(xs, ys, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	warm := make([]*gp.Params, nObj)
	for j, g := range cold {
		p, _ := g.Params()
		warm[j] = &p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.FitAutoAll(xs, ys, warm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// spdMatrix builds a random well-conditioned SPD matrix A = B·Bᵀ + n·I.
func spdMatrix(rng *rand.Rand, n int) *linalg.Matrix {
	bm := linalg.New(n, n)
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	a := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += bm.At(i, k) * bm.At(j, k)
			}
			a.Set(i, j, s)
		}
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// CholeskyBlocked measures the blocked factorization on a 256×256 SPD
// matrix — large enough that several panel/trailing-update rounds run.
func CholeskyBlocked(b *testing.B) {
	a := spdMatrix(rand.New(rand.NewSource(1)), 256)
	dst := linalg.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.CholeskyInto(dst, a); err != nil {
			b.Fatal(err)
		}
	}
}

// Rank1Update measures the O(n²) rank-1 factor update against the O(n³)
// refactorization it replaces on the incremental-GP path.
func Rank1Update(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 256
	a := spdMatrix(rng, n)
	base, err := linalg.Cholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	l := linalg.New(n, n)
	vv := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(l.Data, base.Data)
		copy(vv, v)
		if err := linalg.CholeskyUpdate(l, vv); err != nil {
			b.Fatal(err)
		}
	}
}

// MaestroEvaluate measures one analytical PPA evaluation, the innermost
// operation of the whole co-search.
func MaestroEvaluate(b *testing.B) {
	eng := maestro.Engine{}
	cfg := hw.Spatial{PEX: 12, PEY: 12, L1Bytes: 1728, L2KB: 432, NoCBW: 128,
		Dataflow: hw.WeightStationary}
	l := workload.ResNet().Layers[5]
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(cfg, m, l); err != nil {
			b.Fatal(err)
		}
	}
}

// CAModelEvaluate measures one cycle-level simulation of a short window
// (10 tile steps): the per-evaluation cost around the explicit window.
func CAModelEvaluate(b *testing.B) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	w, _ := workload.ByName("FSRCNN-120x320")
	l := w.Layers[0]
	m := mapping.Ascend{TM: 56, TK: 25, TN: 4096, FuseDepth: 2, DBufA: true, DBufB: true}.Canon(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(cfg, m, l); err != nil {
			b.Fatal(err)
		}
	}
}

// CAModelEvaluateLong measures one cycle-level simulation whose explicit
// window is the full 4 096 tile steps before extrapolating: DLEU's dec1
// under 32×64×256 tiles is 18 225 steps with 9 K tiles per output tile, and
// no double buffering, so no step overlaps its fetch. The window is
// computed in closed form, not walked step by step, so it costs about what
// CAModelEvaluate does; a regression to the walk shows here as microseconds.
func CAModelEvaluateLong(b *testing.B) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	w, _ := workload.ByName("DLEU")
	l := w.Layers[5]
	m := mapping.Ascend{TM: 32, TK: 64, TN: 256, FuseDepth: 1}.Canon(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(cfg, m, l); err != nil {
			b.Fatal(err)
		}
	}
}

// MappingSearchUnit measures one network-level budget unit of the
// FlexTensor-like search on MobileNet.
func MappingSearchUnit(b *testing.B) {
	eng := maestro.Engine{}
	cfg := hw.Spatial{PEX: 8, PEY: 8, L1Bytes: 1728, L2KB: 432, NoCBW: 128,
		Dataflow: hw.OutputStationary}
	ns := mapsearch.NewSpatialSearcher(eng, cfg, workload.MobileNet(), mapsearch.FlexTensorLike, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.Advance(1)
	}
}

// AscendNewJob measures building one candidate's schedule search on the
// Ascend-like platform (DLEU, default core) — per-candidate harness cost
// that must stay far below the simulator time the job then spends.
func AscendNewJob(b *testing.B) {
	p := platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	benchNewJob(b, p, p.AscendSpace().Encode(hw.DefaultAscend()))
}

// SpatialNewJob is the open-source-platform counterpart: one candidate's
// mapping search for MobileNet on an Edge design.
func SpatialNewJob(b *testing.B) {
	p := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	benchNewJob(b, p, p.Space().Sample(rand.New(rand.NewSource(1))))
}

func benchNewJob(b *testing.B, p core.Platform, x []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.NewJob(x, int64(i)) == nil {
			b.Fatal("nil job")
		}
	}
}

// EndToEndMicro runs a Table-1-style micro co-search end to end — a small
// MOBO loop with successive halving on the open-source edge platform — the
// workload whose phase breakdown answers "what do we optimize first."
func EndToEndMicro(ctx context.Context, b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
		res := core.RunContext(ctx, p, core.Options{
			BatchSize: 4,
			MaxIter:   2,
			BMax:      10,
			Workers:   2,
			Seed:      1,
			Clock:     &simclock.Clock{},
		})
		if len(res.All) == 0 {
			b.Fatal("end-to-end micro run produced no candidates")
		}
	}
}

// SpatialJobFirstUnit measures one candidate's mapping search (MobileNet,
// Edge) built and advanced through its first searching unit, where each
// layer makes its first random draw. SpatialNewJob cannot see a layer's
// generator, which is made at that draw; the bootstrap unit before it only
// evaluates the layers' seed schedules and draws nothing.
func SpatialJobFirstUnit(b *testing.B) {
	p := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	x := p.Space().Sample(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.NewJob(x, int64(i)).Advance(2)
	}
}
