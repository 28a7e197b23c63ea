package sh

import (
	"context"
	"testing"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/simclock"
)

// scripted is a fake searcher whose loss curve is a prescribed function of
// budget, letting the tests control TV and AUC exactly.
type scripted struct {
	loss  func(b int) float64
	spent int
	hist  ppa.History
}

func newScripted(loss func(b int) float64) *scripted {
	return &scripted{loss: loss}
}

func (s *scripted) Advance(budget int) {
	for i := 0; i < budget; i++ {
		s.spent++
		l := s.loss(s.spent)
		if len(s.hist) > 0 && l > s.hist[len(s.hist)-1].Loss {
			l = s.hist[len(s.hist)-1].Loss
		}
		s.hist = append(s.hist, ppa.Point{
			Budget: s.spent, Loss: l,
			M: ppa.Metrics{LatencyMs: l, PowerMW: 1, AreaMM2: 1, EnergyUJ: l},
		})
	}
}
func (s *scripted) History() ppa.History    { return s.hist }
func (s *scripted) RawHistory() ppa.History { return s.hist }
func (s *scripted) Spent() int              { return s.spent }
func (s *scripted) Tally() mapsearch.Tally  { return mapsearch.Tally{} }
func (s *scripted) Best() (ppa.Metrics, bool) {
	if len(s.hist) == 0 {
		return ppa.Metrics{}, false
	}
	return s.hist.Last().M, true
}

// constLoss returns a candidate stuck at level.
func constLoss(level float64) *scripted {
	return newScripted(func(int) float64 { return level })
}

func TestRunBudgetLadder(t *testing.T) {
	jobs := make([]mapsearch.Searcher, 8)
	for i := range jobs {
		jobs[i] = constLoss(float64(i + 1))
	}
	out := Run(context.Background(), jobs, Config{PFrac: 0, BMax: 64, Workers: 4})
	if out.Rounds != 3 { // ceil(log2(8))
		t.Errorf("Rounds = %d, want 3", out.Rounds)
	}
	// The best candidate (lowest constant loss) must survive to full budget.
	if jobs[0].Spent() != 64 {
		t.Errorf("best candidate spent %d, want 64", jobs[0].Spent())
	}
	// The worst candidate must be stopped early.
	if jobs[7].Spent() >= 64 {
		t.Errorf("worst candidate spent %d, want early stop", jobs[7].Spent())
	}
	if len(out.Survivors) == 0 || out.Survivors[0] != 0 {
		t.Errorf("Survivors = %v, want candidate 0 alive", out.Survivors)
	}
	if out.TotalEvals <= 0 {
		t.Error("TotalEvals not counted")
	}
}

func TestRunSingleJobGetsFullBudget(t *testing.T) {
	jobs := []mapsearch.Searcher{constLoss(1)}
	Run(context.Background(), jobs, Config{BMax: 32})
	if jobs[0].Spent() != 32 {
		t.Errorf("lone job spent %d, want 32", jobs[0].Spent())
	}
}

func TestRunEmpty(t *testing.T) {
	out := Run(context.Background(), nil, Config{BMax: 10})
	if out.TotalEvals != 0 || out.Rounds != 0 || len(out.Survivors) != 0 {
		t.Errorf("empty run produced %+v", out)
	}
}

func TestPromoteDefaultSHKeepsTopHalfByTV(t *testing.T) {
	jobs := make([]mapsearch.Searcher, 6)
	for i := range jobs {
		jobs[i] = constLoss(float64(i))
		jobs[i].Advance(4)
	}
	alive := []int{0, 1, 2, 3, 4, 5}
	next := Promote(jobs, alive, Config{PFrac: 0, BMax: 8})
	if len(next) != 3 {
		t.Fatalf("survivors = %v, want 3", next)
	}
	for _, i := range next {
		if i > 2 {
			t.Errorf("default SH promoted candidate %d with worse TV", i)
		}
	}
}

func TestMSHPromotesSteepConverger(t *testing.T) {
	// Candidate 0..3: good flat TVs. Candidate 4: poor TV but steepest
	// convergence (huge AUC) — default SH kills it; MSH must keep it.
	jobs := []mapsearch.Searcher{
		constLoss(1), constLoss(2), constLoss(3), constLoss(4),
		newScripted(func(b int) float64 { return 100 / float64(b) }), // TV 25 at b=4, AUC big
	}
	for _, j := range jobs {
		j.Advance(4)
	}
	alive := []int{0, 1, 2, 3, 4}
	sh := Promote(jobs, alive, Config{PFrac: 0, BMax: 8})
	for _, i := range sh {
		if i == 4 {
			t.Fatal("default SH kept the poor-TV candidate; test premise broken")
		}
	}
	msh := Promote(jobs, alive, Config{PFrac: 0.3, BMax: 8})
	kept := false
	for _, i := range msh {
		if i == 4 {
			kept = true
		}
	}
	if !kept {
		t.Errorf("MSH did not promote the steep converger: %v", msh)
	}
}

func TestMSHDegeneratesToSHAtPZero(t *testing.T) {
	// Paper Section 3.3: MSH with p = 0 IS the default SH. Identical
	// candidates must yield identical survivor sets.
	mk := func() []mapsearch.Searcher {
		jobs := make([]mapsearch.Searcher, 10)
		for i := range jobs {
			i := i
			jobs[i] = newScripted(func(b int) float64 { return float64((i*7)%10) + 10/float64(b) })
			jobs[i].Advance(6)
		}
		return jobs
	}
	alive := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	a := Promote(mk(), alive, Config{PFrac: 0, BMax: 12})
	b := Promote(mk(), alive, Config{PFrac: 0, BMax: 12})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic promotion: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic promotion: %v vs %v", a, b)
		}
	}
}

func TestTVAndAUCSetsDisjoint(t *testing.T) {
	// The same candidate must not be double-counted between the TV and AUC
	// promotion sets (paper: H_TV ∩ H_AUC = ∅).
	jobs := []mapsearch.Searcher{
		newScripted(func(b int) float64 { return 50 / float64(b) }), // best TV and best AUC
		constLoss(20), constLoss(30), constLoss(40), constLoss(50), constLoss(60),
	}
	for _, j := range jobs {
		j.Advance(5)
	}
	next := Promote(jobs, []int{0, 1, 2, 3, 4, 5}, Config{PFrac: 0.34, BMax: 10})
	seen := map[int]bool{}
	for _, i := range next {
		if seen[i] {
			t.Fatalf("candidate %d promoted twice: %v", i, next)
		}
		seen[i] = true
	}
	if len(next) != 3 {
		t.Errorf("survivors = %v, want k=3", next)
	}
}

func TestClockChargesParallelMakespan(t *testing.T) {
	var clk simclock.Clock
	jobs := make([]mapsearch.Searcher, 4)
	for i := range jobs {
		jobs[i] = constLoss(float64(i + 1))
	}
	Run(context.Background(), jobs, Config{BMax: 16, Workers: 4, EvalCostSeconds: 1, Clock: &clk})
	seq := 0
	for _, j := range jobs {
		seq += j.Spent()
	}
	if clk.Seconds() <= 0 {
		t.Fatal("clock not charged")
	}
	if clk.Seconds() >= float64(seq) {
		t.Errorf("parallel makespan %v >= sequential cost %v", clk.Seconds(), float64(seq))
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.normalize()
	if c.BMax != 1 || c.Workers != 1 {
		t.Errorf("normalize() = %+v", c)
	}
	if got := (Config{PFrac: 0.9}).normalize(); got.PFrac != kFrac {
		t.Errorf("PFrac not clamped to kFrac: %+v", got)
	}
	if got := (Config{PFrac: -0.1}).normalize(); got.PFrac != 0 {
		t.Errorf("negative PFrac not clamped to 0: %+v", got)
	}
}

// deadSearcher models a job whose worker vanished: Advance is a no-op and
// Spent stays 0, exactly like a dist dead job or a remote job with a latched
// transport error.
type deadSearcher struct{}

func (deadSearcher) Advance(int)               {}
func (deadSearcher) History() ppa.History      { return nil }
func (deadSearcher) RawHistory() ppa.History   { return nil }
func (deadSearcher) Spent() int                { return 0 }
func (deadSearcher) Best() (ppa.Metrics, bool) { return ppa.Metrics{}, false }
func (deadSearcher) Tally() mapsearch.Tally    { return mapsearch.Tally{} }

// TestRunCountsActualEvalsNotPlannedBudget pins the accounting fix: a dead
// job that never advances must not inflate TotalEvals (or the simulated
// clock) with the budget it was merely asked to spend.
func TestRunCountsActualEvalsNotPlannedBudget(t *testing.T) {
	jobs := []mapsearch.Searcher{constLoss(1), constLoss(2), constLoss(3), deadSearcher{}}
	var clk simclock.Clock
	out := Run(context.Background(), jobs, Config{PFrac: 0, BMax: 8, Workers: 2,
		EvalCostSeconds: 1, Clock: &clk})

	actual := 0
	for _, j := range jobs {
		actual += j.Spent()
	}
	if out.TotalEvals != actual {
		t.Errorf("TotalEvals = %d, want the %d evaluations actually performed",
			out.TotalEvals, actual)
	}
	if clk.Seconds() <= 0 {
		t.Error("live candidates advanced but the clock did not")
	}
}

// TestFullBudgetIsOneRungToBMax: the schedule without early stopping brings
// every job to b_max in one round, charges the clock the parallel makespan
// of exactly that (waves × b_max × cost), and counts a job that cannot
// advance as nothing — the accounting of a rung, not a second copy of it.
func TestFullBudgetIsOneRungToBMax(t *testing.T) {
	jobs := []mapsearch.Searcher{constLoss(1), constLoss(2), constLoss(3), constLoss(4), constLoss(5)}
	var clk simclock.Clock
	out := FullBudget(context.Background(), jobs, Config{BMax: 12, Workers: 2, EvalCostSeconds: 0.5, Clock: &clk})
	for i, j := range jobs {
		if j.Spent() != 12 || len(j.History()) != 12 {
			t.Errorf("job %d spent %d with a %d-point history, want 12 and 12", i, j.Spent(), len(j.History()))
		}
	}
	if out.TotalEvals != 60 || out.Rounds != 1 || len(out.Survivors) != 5 || len(out.RungAlive) != 1 || out.RungAlive[0] != 5 {
		t.Errorf("outcome %+v, want 60 evals in 1 round, all 5 alive", out)
	}
	if want := 3 * 12 * 0.5; clk.Seconds() != want { // ceil(5/2) waves
		t.Errorf("clock charged %v s, want %v", clk.Seconds(), want)
	}

	clk.Reset()
	out = FullBudget(context.Background(), []mapsearch.Searcher{constLoss(1), deadSearcher{}},
		Config{BMax: 12, Workers: 2, EvalCostSeconds: 0.5, Clock: &clk})
	if out.TotalEvals != 12 {
		t.Errorf("TotalEvals = %d with one dead job, want the live job's 12", out.TotalEvals)
	}
	if out := FullBudget(context.Background(), nil, Config{BMax: 12}); out.TotalEvals != 0 || out.Rounds != 0 {
		t.Errorf("empty batch: %+v", out)
	}
}
