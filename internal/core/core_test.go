package core

import (
	"context"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/pareto"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/simclock"
	"unico/internal/workload"
)

func testPlatform() Platform {
	return platform.NewSpatial(hw.Edge,
		[]workload.Workload{workload.MobileNetV3Small()}, mapsearch.FlexTensorLike)
}

func smallOpts(seed int64) Options {
	opt := UNICOOptions(6, 3, 20, seed)
	opt.Workers = 4
	return opt
}

func TestRunProducesFeasibleFront(t *testing.T) {
	res := RunContext(context.Background(), testPlatform(), smallOpts(1))
	if len(res.All) == 0 {
		t.Fatal("no candidates evaluated")
	}
	if len(res.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for _, c := range res.Front {
		if !c.Feasible {
			t.Errorf("infeasible candidate on the front: %+v", c.Metrics)
		}
		if c.Metrics.PowerMW > hw.Edge.PowerCapMW() {
			t.Errorf("front candidate violates the power cap: %v", c.Metrics.PowerMW)
		}
	}
	// The front must be mutually non-dominated over (latency, power, area).
	pts := make([][]float64, len(res.Front))
	for i, c := range res.Front {
		pts[i] = c.Objectives(false)
	}
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(pts[i], pts[j]) {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := RunContext(context.Background(), testPlatform(), smallOpts(7))
	b := RunContext(context.Background(), testPlatform(), smallOpts(7))
	if len(a.All) != len(b.All) || a.Evals != b.Evals {
		t.Fatalf("structure diverged: %v vs %v", a, b)
	}
	for i := range a.All {
		if a.All[i].Metrics != b.All[i].Metrics {
			t.Fatalf("candidate %d diverged: %+v vs %+v", i, a.All[i].Metrics, b.All[i].Metrics)
		}
	}
}

func TestTraceMonotoneHours(t *testing.T) {
	res := RunContext(context.Background(), testPlatform(), smallOpts(2))
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Hours < res.Trace[i-1].Hours {
			t.Errorf("trace hours decreased at %d", i)
		}
		if res.Trace[i].Iter != res.Trace[i-1].Iter+1 {
			t.Errorf("trace iterations not consecutive at %d", i)
		}
	}
	if res.Hours <= 0 {
		t.Error("no simulated cost accrued")
	}
}

func TestDisableSHSpendsFullBudget(t *testing.T) {
	opt := smallOpts(3)
	opt.DisableSH = true
	opt.BatchSize = 4
	opt.MaxIter = 2
	res := RunContext(context.Background(), testPlatform(), opt)
	// Every candidate runs to BMax: evals = iters * batch * bmax.
	want := 2 * 4 * opt.BMax
	if res.Evals != want {
		t.Errorf("Evals = %d, want %d (full budget)", res.Evals, want)
	}
}

func TestSHSpendsLess(t *testing.T) {
	full := smallOpts(4)
	full.DisableSH = true
	early := smallOpts(4)
	a := RunContext(context.Background(), testPlatform(), full)
	b := RunContext(context.Background(), testPlatform(), early)
	if b.Evals >= a.Evals {
		t.Errorf("successive halving spent %d >= full budget %d", b.Evals, a.Evals)
	}
}

func TestSequentialCostsMoreWallClock(t *testing.T) {
	seq := smallOpts(5)
	seq.Workers = 1
	seq.DisableSH = true
	par := smallOpts(5)
	par.Workers = 8
	par.DisableSH = true
	a := RunContext(context.Background(), testPlatform(), seq)
	b := RunContext(context.Background(), testPlatform(), par)
	if b.Hours >= a.Hours {
		t.Errorf("parallel hours %v >= sequential %v", b.Hours, a.Hours)
	}
}

func TestTimeBudgetStopsEarly(t *testing.T) {
	opt := smallOpts(6)
	opt.MaxIter = 50
	opt.TimeBudgetHours = 0.001
	res := RunContext(context.Background(), testPlatform(), opt)
	if len(res.Trace) >= 50 {
		t.Errorf("time budget ignored: %d iterations ran", len(res.Trace))
	}
}

func TestRobustnessObjectiveRecorded(t *testing.T) {
	res := RunContext(context.Background(), testPlatform(), smallOpts(8))
	seen := false
	for _, c := range res.All {
		if c.Feasible && c.Sensitivity >= 0 {
			seen = true
		}
		if y := c.Objectives(true); len(y) != 4 {
			t.Fatalf("Objectives(withR) length %d", len(y))
		}
		if y := c.Objectives(false); len(y) != 3 {
			t.Fatalf("Objectives length %d", len(y))
		}
	}
	if !seen {
		t.Error("no feasible candidate with a sensitivity value")
	}
}

func TestRepresentative(t *testing.T) {
	if _, ok := Representative(nil); ok {
		t.Error("Representative of empty front succeeded")
	}
	res := RunContext(context.Background(), testPlatform(), smallOpts(9))
	rep, ok := Representative(res.Front)
	if !ok {
		t.Fatal("no representative")
	}
	if !rep.Feasible {
		t.Error("representative infeasible")
	}
}

func TestHypervolumeOfResult(t *testing.T) {
	res := RunContext(context.Background(), testPlatform(), smallOpts(10))
	ref := []float64{1e6, 1e6, 1e4}
	if hv := pareto.Hypervolume(frontPPA(res.Front), ref); hv <= 0 {
		t.Errorf("Hypervolume = %v", hv)
	}
}

func TestNormalizeObjectives(t *testing.T) {
	in := []float64{1, 0, -5}
	out := NormalizeObjectives(in)
	if out[0] != 1 {
		t.Errorf("positive value changed: %v", out)
	}
	if out[1] <= 0 || out[2] <= 0 {
		t.Errorf("non-positive values not floored: %v", out)
	}
}

func TestOptionsNormalize(t *testing.T) {
	opt := Options{}.normalize()
	if opt.BatchSize != 30 || opt.BMax != 300 || opt.Clock == nil {
		t.Errorf("defaults wrong: %+v", opt)
	}
}

func TestUNICOOptionsMatchPaper(t *testing.T) {
	opt := UNICOOptions(30, 10, 300, 1)
	if opt.MSHPromoteFrac != 0.15 {
		t.Errorf("p/N = %v, want 0.15", opt.MSHPromoteFrac)
	}
	if !opt.UseRobustness {
		t.Error("robustness objective off")
	}
	if opt.UpdateRule != mobo.HighFidelity {
		t.Error("update rule not high-fidelity")
	}
}

func TestExternalClockShared(t *testing.T) {
	clk := &simclock.Clock{}
	opt := smallOpts(11)
	opt.Clock = clk
	RunContext(context.Background(), testPlatform(), opt)
	if clk.Hours() <= 0 {
		t.Error("external clock not advanced")
	}
}

// spendCounter is a minimal searcher that just tallies advanced budget.
type spendCounter struct{ spent int }

func (s *spendCounter) Advance(b int)             { s.spent += b }
func (s *spendCounter) History() ppa.History      { return nil }
func (s *spendCounter) RawHistory() ppa.History   { return nil }
func (s *spendCounter) Spent() int                { return s.spent }
func (s *spendCounter) Best() (ppa.Metrics, bool) { return ppa.Metrics{}, false }
func (s *spendCounter) Tally() mapsearch.Tally    { return mapsearch.Tally{} }

// stuckSearcher never advances, like a remote job on a dead worker.
type stuckSearcher struct{}

func (stuckSearcher) Advance(int)               {}
func (stuckSearcher) History() ppa.History      { return nil }
func (stuckSearcher) RawHistory() ppa.History   { return nil }
func (stuckSearcher) Spent() int                { return 0 }
func (stuckSearcher) Best() (ppa.Metrics, bool) { return ppa.Metrics{}, false }
func (stuckSearcher) Tally() mapsearch.Tally    { return mapsearch.Tally{} }

// deadWorkerPlatform hands out searchers that advance and searchers that
// never do, alternating.
type deadWorkerPlatform struct {
	Platform
	jobs int
}

func (p *deadWorkerPlatform) NewJob([]float64, int64) mapsearch.Searcher {
	p.jobs++
	if p.jobs%2 == 0 {
		return stuckSearcher{}
	}
	return &spendCounter{}
}

// TestRunFullBudgetCountsActualSpend pins the no-early-stopping accounting:
// a job that cannot advance contributes zero evaluations, not BMax.
func TestRunFullBudgetCountsActualSpend(t *testing.T) {
	opt := smallOpts(1)
	opt.DisableSH = true
	opt.MaxIter = 1
	res := RunContext(context.Background(), &deadWorkerPlatform{Platform: testPlatform()}, opt)
	if want := opt.BatchSize / 2 * opt.BMax; res.Evals != want {
		t.Errorf("Evals = %d, want %d (the live half of the batch x BMax)", res.Evals, want)
	}
}
