package baselines

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/pareto"
	"unico/internal/platform"
	"unico/internal/workload"
)

func testPlatform() core.Platform {
	return platform.NewSpatial(hw.Edge,
		[]workload.Workload{workload.MobileNetV3Small()}, mapsearch.FlexTensorLike)
}

func TestHASCOOptionsRegime(t *testing.T) {
	opt := HASCOOptions(10, 5, 100, 1)
	if !opt.DisableSH {
		t.Error("HASCO must not early-stop")
	}
	if opt.UpdateRule != mobo.Champion {
		t.Error("HASCO must use champion updates")
	}
	if opt.Workers != 1 {
		t.Error("HASCO must be sequential")
	}
	if opt.UseRobustness {
		t.Error("HASCO has no robustness objective")
	}
}

func TestAblationPresets(t *testing.T) {
	sh := SHChampionOptions(10, 5, 100, 1)
	if sh.DisableSH || sh.MSHPromoteFrac != 0 || sh.UpdateRule != mobo.Champion {
		t.Errorf("SH+Champion preset wrong: %+v", sh)
	}
	msh := MSHChampionOptions(10, 5, 100, 1)
	if msh.MSHPromoteFrac != 0.15 || msh.UpdateRule != mobo.Champion {
		t.Errorf("MSH+Champion preset wrong: %+v", msh)
	}
	bohb := MOBOHBOptions(10, 5, 100, 1)
	if bohb.MSHPromoteFrac != 0 || bohb.UpdateRule != mobo.AllSamples || bohb.DisableSH {
		t.Errorf("MOBOHB preset wrong: %+v", bohb)
	}
}

func TestHASCORunSmoke(t *testing.T) {
	res := core.RunContext(context.Background(), testPlatform(), HASCOOptions(4, 2, 15, 3))
	if len(res.All) != 8 {
		t.Errorf("HASCO evaluated %d candidates, want 8", len(res.All))
	}
	if res.Evals != 8*15 {
		t.Errorf("HASCO spent %d evals, want full budget %d", res.Evals, 8*15)
	}
	if res.Hours <= 0 {
		t.Error("no cost accrued")
	}
}

func TestNSGAIIRunSmoke(t *testing.T) {
	res := NSGAII(context.Background(), testPlatform(), NSGAIIOptions{Pop: 8, Generations: 3, BMax: 15, Seed: 5})
	// Initial pop + 3 offspring generations.
	if want := 8 * 4; len(res.All) != want {
		t.Errorf("NSGA-II evaluated %d candidates, want %d", len(res.All), want)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	pts := make([][]float64, len(res.Front))
	for i, c := range res.Front {
		pts[i] = c.Objectives(false)
	}
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(pts[i], pts[j]) {
				t.Errorf("front point %d dominates %d", i, j)
			}
		}
	}
	if len(res.Trace) != 4 {
		t.Errorf("trace length %d, want 4", len(res.Trace))
	}
	// Generation 0 is the initial population; Fronts derives each
	// generation's front, and the last is the run's.
	if fronts := res.Fronts(); len(fronts) != 4 || !reflect.DeepEqual(fronts[3], res.Front) {
		t.Errorf("derived fronts %d, last equals the run's front: %v", len(fronts), len(fronts) == 4 && reflect.DeepEqual(fronts[3], res.Front))
	}
}

func TestNSGAIIDeterministic(t *testing.T) {
	o := NSGAIIOptions{Pop: 6, Generations: 2, BMax: 10, Seed: 9}
	a := NSGAII(context.Background(), testPlatform(), o)
	b := NSGAII(context.Background(), testPlatform(), o)
	if len(a.All) != len(b.All) {
		t.Fatal("structure diverged")
	}
	for i := range a.All {
		if a.All[i].Metrics != b.All[i].Metrics {
			t.Fatalf("candidate %d diverged", i)
		}
	}
}

func TestNSGAIITimeBudget(t *testing.T) {
	res := NSGAII(context.Background(), testPlatform(), NSGAIIOptions{
		Pop: 6, Generations: 50, BMax: 10, Seed: 2, TimeBudgetHours: 0.0001,
	})
	if len(res.Trace) >= 51 {
		t.Error("time budget ignored")
	}
}

// cancelAtJob is a platform that cancels its run while building its n-th job.
type cancelAtJob struct {
	core.Platform
	n, built int
	cancel   context.CancelFunc
}

func (p *cancelAtJob) NewJob(x []float64, seed int64) mapsearch.Searcher {
	if p.built++; p.built == p.n {
		p.cancel()
	}
	return p.Platform.NewJob(x, seed)
}

// TestNSGAIICancelledMidGenerationKeepsLastComplete: a generation cut short
// by ctx is discarded whole — the result (candidates, front, trace, evals,
// hours) is exactly that of a run that stopped one generation earlier.
func TestNSGAIICancelledMidGenerationKeepsLastComplete(t *testing.T) {
	o := NSGAIIOptions{Pop: 6, Generations: 3, BMax: 10, Workers: 2, Seed: 9}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Jobs 1–6 are generation 0, 7–12 generation 1; the 15th is built while
	// generation 2 is being set up.
	got := NSGAII(ctx, &cancelAtJob{Platform: testPlatform(), n: 15, cancel: cancel}, o)

	o.Generations = 1
	want := NSGAII(context.Background(), testPlatform(), o)
	if len(want.All) != 12 || want.Evals != 12*10 {
		t.Fatalf("reference run: %d candidates, %d evals", len(want.All), want.Evals)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cancelled run = %v, want the one-generation run %v", got, want)
	}

	// Cancelled before the initial population finished: nothing to report.
	ctx0, cancel0 := context.WithCancel(context.Background())
	cancel0()
	if got := NSGAII(ctx0, testPlatform(), o); !reflect.DeepEqual(got, core.Result{}) {
		t.Errorf("run cancelled at the start = %v, want the zero Result", got)
	}
}

// TestNSGAIIReleasesRemoteJobs runs NSGA-II against a dist.Server: a
// generation's worker-side searchers are deleted once it is absorbed, and
// also when ctx cuts it short, so the worker holds nothing when the run
// returns. (It held Pop jobs per generation before evaluate released them.)
func TestNSGAIIReleasesRemoteJobs(t *testing.T) {
	worker := dist.NewServer()
	srv := httptest.NewServer(worker.Handler())
	defer srv.Close()
	remote, err := dist.NewRemoteSpatialPlatform(
		[]*dist.Client{dist.NewClient(srv.URL, srv.Client())}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	// One worker: a request cancelled in flight can leave a job the worker
	// built and the client never heard of, which is the worker's to bound,
	// not the run's to release.
	o := NSGAIIOptions{Pop: 4, Generations: 2, BMax: 6, Workers: 1, Seed: 3}

	res := NSGAII(context.Background(), remote, o)
	if len(res.All) != 12 || res.Evals != 12*6 {
		t.Fatalf("remote run: %d candidates, %d evals, want 12 and %d", len(res.All), res.Evals, 12*6)
	}
	if n := worker.JobCount(); n != 0 {
		t.Errorf("a completed run left %d jobs on the worker", n)
	}

	// Cut generation 1 short once its searches have reached the worker: the
	// sixth job is built while generation 1 is set up, and cancelling at the
	// first progress of its search leaves jobs the worker has already built.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := NSGAII(ctx, &cancelAfterAdvance{Platform: remote, n: 6, cancel: cancel}, o)
	if len(cut.All) != 4 {
		t.Fatalf("cut run kept %d candidates, want generation 0's 4", len(cut.All))
	}
	if n := worker.JobCount(); n != 0 {
		t.Errorf("a cancelled run left %d jobs on the worker", n)
	}
}

// cancelAfterAdvance is a platform whose n-th job cancels the run right
// after its first Advance — once the worker holds it.
type cancelAfterAdvance struct {
	core.Platform
	n, built int
	cancel   context.CancelFunc
}

func (p *cancelAfterAdvance) NewJob(x []float64, seed int64) mapsearch.Searcher {
	j := p.Platform.NewJob(x, seed)
	if p.built++; p.built == p.n {
		return &cancellingJob{Searcher: j, cancel: p.cancel}
	}
	return j
}

type cancellingJob struct {
	mapsearch.Searcher
	cancel context.CancelFunc
}

func (j *cancellingJob) Advance(budget int) { j.AdvanceContext(context.Background(), budget) }

func (j *cancellingJob) AdvanceContext(ctx context.Context, budget int) {
	j.Searcher.(mapsearch.ContextAdvancer).AdvanceContext(ctx, budget)
	j.cancel()
}

func (j *cancellingJob) Close() error { return j.Searcher.(interface{ Close() error }).Close() }

func TestSBXAndMutationStayInUnitCube(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		c1, c2 := sbx(a, b, 15, rng)
		m := polyMutate(c1, 0.5, 20, rng)
		for _, v := range append(append(append([]float64{}, c1...), c2...), m...) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCrowdedComparison(t *testing.T) {
	a := individual{rank: 0, cd: 1}
	b := individual{rank: 1, cd: 100}
	if !crowdedLess(a, b) {
		t.Error("lower rank must win regardless of crowding")
	}
	c := individual{rank: 0, cd: 5}
	if !crowdedLess(c, a) {
		t.Error("equal rank: larger crowding distance must win")
	}
}

func TestSelectNextSizeAndElitism(t *testing.T) {
	// Build a union where the first front is smaller than the target size.
	var union []individual
	objs := [][]float64{
		{1, 4}, {2, 3}, {4, 1}, // F1
		{2, 5}, {3, 4}, {5, 2}, // F2
		{6, 6}, {7, 7}, // F3
	}
	for _, o := range objs {
		union = append(union, individual{obj: o})
	}
	next := selectNext(union, 5)
	if len(next) != 5 {
		t.Fatalf("selected %d, want 5", len(next))
	}
	// All of F1 must survive (elitism).
	f1 := map[string]bool{"1,4": true, "2,3": true, "4,1": true}
	found := 0
	for _, ind := range next {
		k := keyOf(ind.obj)
		if f1[k] {
			found++
		}
	}
	if found != 3 {
		t.Errorf("only %d/3 first-front members survived", found)
	}
}

func keyOf(o []float64) string {
	return string(rune(int(o[0])+48)) + "," + string(rune(int(o[1])+48))
}

func TestNormalizeDefaults(t *testing.T) {
	o := NSGAIIOptions{}.normalize()
	if o.Pop != 20 || o.Generations != 10 || o.BMax != 300 {
		t.Errorf("defaults: %+v", o)
	}
	odd := NSGAIIOptions{Pop: 7}.normalize()
	if odd.Pop%2 != 0 {
		t.Error("odd population not rounded up")
	}
}
