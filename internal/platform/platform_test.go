package platform

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"unico/internal/core"
	"unico/internal/evalcache"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// Compile-time interface checks.
var (
	_ core.Platform = (*Spatial)(nil)
	_ core.Platform = (*Ascend)(nil)
)

func TestSpatialPlatform(t *testing.T) {
	p := NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	if p.Space().Dim() != 6 {
		t.Errorf("Dim = %d", p.Space().Dim())
	}
	if p.PowerCapMW() != 2000 {
		t.Errorf("PowerCapMW = %v", p.PowerCapMW())
	}
	if p.AreaCapMM2() != 0 {
		t.Errorf("AreaCapMM2 = %v", p.AreaCapMM2())
	}
	// Budget-unit cost = per-eval cost x layer count.
	wantCost := p.Engine.EvalCostSeconds() * float64(len(workload.MobileNet().Layers))
	if got := p.EvalCostSeconds(); got != wantCost {
		t.Errorf("EvalCostSeconds = %v, want %v", got, wantCost)
	}
	x := p.Space().Sample(rand.New(rand.NewSource(1)))
	if p.Describe(x) == "" {
		t.Error("empty Describe")
	}
	job := p.NewJob(x, 1)
	job.Advance(3)
	if job.Spent() != 3 {
		t.Errorf("Spent = %d", job.Spent())
	}
}

func TestAscendPlatform(t *testing.T) {
	p := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	if p.AreaCapMM2() != 200 {
		t.Errorf("AreaCapMM2 = %v, want the paper's 200", p.AreaCapMM2())
	}
	if p.PowerCapMW() != 0 {
		t.Errorf("PowerCapMW = %v", p.PowerCapMW())
	}
	if p.EvalCostSeconds() < 60 {
		t.Errorf("CAModel budget-unit cost %v suspiciously cheap", p.EvalCostSeconds())
	}
	def := p.AscendSpace().Encode(hw.DefaultAscend())
	job := p.NewJob(def, 2)
	job.Advance(2)
	if _, ok := job.Best(); !ok {
		t.Error("default core found no schedule in 2 units")
	}
}

func TestCombine(t *testing.T) {
	p := NewSpatial(hw.Edge,
		[]workload.Workload{workload.BERT(), workload.ViT()}, mapsearch.FlexTensorLike)
	combined := p.Workload()
	if combined.Name != "Bert+VIT" {
		t.Errorf("combined name %q", combined.Name)
	}
	want := len(workload.BERT().Layers) + len(workload.ViT().Layers)
	if len(combined.Layers) != want {
		t.Errorf("combined layers %d, want %d", len(combined.Layers), want)
	}
	// Layer names must be qualified by network.
	if combined.Layers[0].Name != "Bert/qkv_proj" {
		t.Errorf("layer name %q", combined.Layers[0].Name)
	}
	single := NewSpatial(hw.Edge, []workload.Workload{workload.BERT()}, mapsearch.FlexTensorLike)
	if single.Workload().Name != "Bert" {
		t.Error("single-workload combine must be the identity")
	}
}

func TestConstructorsRejectEmpty(t *testing.T) {
	for name, fn := range map[string]func(){
		"spatial": func() { NewSpatial(hw.Edge, nil, mapsearch.FlexTensorLike) },
		"ascend":  func() { NewAscend(nil, mapsearch.DepthFirst) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted empty workloads", name)
				}
			}()
			fn()
		}()
	}
}

// countingSpatialEngine counts engine calls through to maestro, so cache
// tests can prove repeated evaluations perform no recomputation.
type countingSpatialEngine struct {
	inner maestro.Engine
	calls *atomic.Int64
}

func (e countingSpatialEngine) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	e.calls.Add(1)
	return e.inner.Evaluate(c, m, l)
}
func (e countingSpatialEngine) Area(c hw.Spatial) float64 { return e.inner.Area(c) }
func (e countingSpatialEngine) EvalCostSeconds() float64  { return e.inner.EvalCostSeconds() }

// TestCachedJobPerformsNoRecomputation: an evalcache wrapper installed as the
// platform's Engine (what bench/'s cloud_mapping_cached does) is consulted by
// the jobs the platform builds — re-running the identical (x, seed) mapping search must be
// served entirely from the cache, with zero engine calls.
func TestCachedJobPerformsNoRecomputation(t *testing.T) {
	var calls atomic.Int64
	p := NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	p.Engine = evalcache.Spatial{Inner: countingSpatialEngine{calls: &calls}, Cache: evalcache.New(0)}

	x := p.Space().Sample(rand.New(rand.NewSource(5)))

	job := p.NewJob(x, 11)
	job.Advance(6)
	first := calls.Load()
	if first == 0 {
		t.Fatal("first job performed no engine calls")
	}

	job2 := p.NewJob(x, 11)
	job2.Advance(6)
	if got := calls.Load(); got != first {
		t.Errorf("repeated job performed %d engine recomputations", got-first)
	}
	if !reflect.DeepEqual(job2.History(), job.History()) {
		t.Error("cached job history differs from original")
	}
}

// TestCoSearchBitIdenticalWithCache pins the cache's correctness contract:
// a full co-search returns bit-identical results over a cached engine and a
// bare one.
func TestCoSearchBitIdenticalWithCache(t *testing.T) {
	opt := core.UNICOOptions(4, 2, 8, 3)
	opt.Workers = 2

	run := func(cached bool) core.Result {
		p := NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
		if cached {
			p.Engine = evalcache.Spatial{Inner: p.Engine, Cache: evalcache.New(0)}
		}
		return core.RunContext(context.Background(), p, opt)
	}

	plain, cached := run(false), run(true)
	if !reflect.DeepEqual(plain.Front, cached.Front) {
		t.Errorf("cached front differs:\n off %+v\n on  %+v", plain.Front, cached.Front)
	}
	if !reflect.DeepEqual(plain.All, cached.All) {
		t.Error("cached candidate set differs from uncached run")
	}
	if plain.Evals != cached.Evals || plain.Hours != cached.Hours {
		t.Errorf("cached accounting differs: evals %d vs %d, sim %v vs %v h",
			plain.Evals, cached.Evals, plain.Hours, cached.Hours)
	}
}

// TestAscendNewJobAllocatesLittle keeps job construction free of
// hardware-independent work: building the DLEU schedule search for one
// candidate stays under 64 KiB (materialising each layer's depth-first walk
// up front used to cost ~10 MiB per call).
func TestAscendNewJobAllocatesLittle(t *testing.T) {
	p := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	x := p.AscendSpace().Encode(hw.DefaultAscend())
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if p.NewJob(x, int64(i)) == nil {
			t.Fatal("nil job")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("NewJob allocates %d bytes per call, want < %d", per, 64<<10)
	}
}

// TestSpatialNewJobAllocatesLittle is the open-source platform's counterpart:
// building MobileNet's mapping search for one candidate measures 11.1 KiB
// and stays under 24 KiB. It was 119 KiB while each of the 22 layers' rand
// sources was seeded (4.8 KiB of state apiece) at construction.
func TestSpatialNewJobAllocatesLittle(t *testing.T) {
	p := NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	x := p.Space().Sample(rand.New(rand.NewSource(1)))
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if p.NewJob(x, int64(i)) == nil {
			t.Fatal("nil job")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 24<<10 {
		t.Errorf("NewJob allocates %d bytes per call, want < %d", per, 24<<10)
	}
}

// TestCloudJobFirstRungAllocatesLittle holds a candidate's job on
// cloud_mapping's six networks (93 layers), built and advanced through that
// search's first rung (N = 30, b_max = 300, η = 2: 18 budget units), to what
// its layer searches draw. While each layer's generator took math/rand's
// whole 607-word register at its first draw, such a job allocated 577 KiB,
// and 180 KiB while it kept its draws in a doubling buffer; now that a
// generator holds no draws before the 607th, it measures 89 KiB and must
// stay under 144 KiB.
func TestCloudJobFirstRungAllocatesLittle(t *testing.T) {
	var ws []workload.Workload
	for _, name := range []string{"ResNet", "VGG", "Bert", "Xception", "UNet", "VIT"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	p := NewSpatial(hw.Cloud, ws, mapsearch.FlexTensorLike)
	x := p.Space().Sample(rand.New(rand.NewSource(1)))
	const jobs, firstRung = 4, 18
	p.NewJob(x, 0).Advance(firstRung) // grows the layer order every job shares
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= jobs; i++ {
		p.NewJob(x, int64(i)).Advance(firstRung)
	}
	runtime.ReadMemStats(&after)
	if per, limit := (after.TotalAlloc-before.TotalAlloc)/jobs, uint64(144<<10); per >= limit {
		t.Errorf("a job through its first rung allocates %d bytes, want < %d", per, limit)
	}
}

// TestAscendJobFirstRungAllocatesLittle is the Ascend-like platform's
// counterpart: a DLEU candidate's job, built and advanced through the first
// rung of ascend_dleu's search (N = 8, b_max = 200, η = 2: 50 budget units).
// While each job generated its own depth-first walks, and the greedy growth
// of a layer's guided seed moved every tile it tried to the heap, such a job
// allocated 78 KiB; now that a layer's walk is built once per workload, it
// measures 19.3 KiB and must stay under 28 KiB.
func TestAscendJobFirstRungAllocatesLittle(t *testing.T) {
	p := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	x := p.Space().Sample(rand.New(rand.NewSource(1)))
	const jobs, firstRung = 4, 50
	p.NewJob(x, 0).Advance(firstRung) // grows the layer order and walks every job shares
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= jobs; i++ {
		p.NewJob(x, int64(i)).Advance(firstRung)
	}
	runtime.ReadMemStats(&after)
	if per, limit := (after.TotalAlloc-before.TotalAlloc)/jobs, uint64(28<<10); per >= limit {
		t.Errorf("a job through its first rung allocates %d bytes, want < %d", per, limit)
	}
}
