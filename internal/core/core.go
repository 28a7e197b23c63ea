// Package core implements UNICO itself: the bi-level co-optimization of
// paper Algorithm 1. The outer level samples batches of hardware
// configurations with multi-objective Bayesian optimization
// (internal/mobo); the inner level runs the software-mapping search of each
// candidate under modified successive halving (internal/sh); the robustness
// metric R (internal/robust) joins (latency, power, area) as the fourth
// objective; and the High Fidelity Update Rule selects which samples refine
// the surrogate.
//
// Every algorithmic switch of the paper's Fig. 10 ablation is an Options
// field, so HASCO-like, SH+ChampionUpdate, MSH+ChampionUpdate and full
// UNICO are all configurations of the same Run function (the baselines
// package provides the presets).
package core

import (
	"context"
	"fmt"
	"math"

	"unico/internal/disttrace"
	"unico/internal/durable"
	"unico/internal/flightrec"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/pareto"
	"unico/internal/perfprof"
	"unico/internal/ppa"
	"unico/internal/robust"
	"unico/internal/sh"
	"unico/internal/simclock"
)

// Platform abstracts an accelerator platform for the co-optimizer: its
// hardware design space, a factory for resumable software-mapping searches,
// and the PPA-engine cost contract. Implementations live in
// internal/platform.
type Platform interface {
	// Space is the hardware design space.
	Space() mobo.Space
	// NewJob builds a fresh software-mapping search for the hardware at x
	// over the platform's workload set.
	NewJob(x []float64, seed int64) mapsearch.Searcher
	// EvalCostSeconds is the simulated cost of one PPA evaluation.
	EvalCostSeconds() float64
	// Describe renders the hardware at x.
	Describe(x []float64) string
	// PowerCapMW is the deployment power constraint (0 = none).
	PowerCapMW() float64
	// AreaCapMM2 is the chip area constraint (0 = none).
	AreaCapMM2() float64
}

// Options parameterizes a co-optimization run. The zero value is completed
// with the paper's defaults by normalize.
type Options struct {
	// BatchSize is the hardware batch N per MOBO iteration (paper: 30 on
	// the open-source platform, 8 on Ascend-like).
	BatchSize int
	// MaxIter is the number of MOBO iterations.
	MaxIter int
	// BMax is the maximum software-mapping budget b_max per candidate
	// (paper: 300 open-source, 200 Ascend-like).
	BMax int
	// DisableSH runs every candidate to full budget (no early stopping) —
	// the HASCO-like regime of Fig. 10.
	DisableSH bool
	// MSHPromoteFrac is the AUC-promotion fraction p/N of modified
	// successive halving; 0 selects default SH. Paper: 0.15.
	MSHPromoteFrac float64
	// UseRobustness adds the sensitivity metric R as the fourth objective.
	UseRobustness bool
	// UpdateRule selects the surrogate update rule.
	UpdateRule mobo.UpdateRule
	// Workers bounds parallel mapping-search jobs (paper Fig. 6).
	Workers int
	// SearchWorkers bounds the parallel acquisition scalarizations inside
	// each MOBO suggestion step and the parallel factor work of each
	// surrogate refit (mobo.Config.SearchWorkers). Results are
	// bit-identical for every value — it trades wall-clock time only — so
	// unlike Workers it is deliberately excluded from the checkpoint
	// fingerprint: a run checkpointed at one setting resumes cleanly at
	// another. Default 8.
	SearchWorkers int
	// Seed makes the run deterministic.
	Seed int64
	// Clock accrues simulated wall-clock time; a fresh clock is created if
	// nil.
	Clock *simclock.Clock
	// TimeBudgetHours stops the run once the simulated clock passes this
	// many hours (0 = no time cap; MaxIter still applies).
	TimeBudgetHours float64
	// Progress, if non-nil, is invoked after every MOBO iteration with the
	// convergence snapshot of that moment (UUL, front size, evaluations,
	// simulated hours).
	Progress ProgressFunc
	// Flight, if non-nil, receives one flight record per completed iteration
	// (UUL, feasible front, SH survivor curve, work), emitted at the same boundary
	// as the checkpoint journal — and durably *before* it, so a flight
	// artifact is never behind the checkpoint it resumes against.
	// Like tracing and checkpointing, it never influences the search.
	Flight flightrec.Sink
	// Checkpoint, if non-nil, receives a journal record after every
	// completed iteration and an atomic snapshot every CheckpointEvery
	// iterations (plus a genesis snapshot before the first). Checkpointing
	// never influences the search: results are bit-identical with and
	// without a sink.
	Checkpoint CheckpointSink
	// CheckpointEvery is the snapshot cadence in iterations (default 10).
	CheckpointEvery int
	// Resume, if non-nil, continues the run from a loaded checkpoint instead
	// of starting fresh. The checkpoint's fingerprint must match this run's
	// platform and options; on mismatch Run returns an empty Result with
	// CheckpointErr wrapping ErrResumeMismatch.
	Resume *ResumeState
}

// Progress is the per-iteration convergence snapshot delivered to
// Options.Progress: the signal of the paper's Fig. 7/10 curves, surfaced
// live.
type Progress struct {
	// Iter is the MOBO iteration (1-based).
	Iter int
	// SimHours is the simulated search cost so far.
	SimHours float64
	// UUL is the current Upper Update Limit of the high-fidelity rule
	// (+Inf until the first update).
	UUL float64
	// FrontSize is the feasible Pareto front size.
	FrontSize int
	// Evals is the cumulative mapping-evaluation budget spent.
	Evals int
	// Admitted is how many of this iteration's samples entered the
	// surrogate training set.
	Admitted int
}

// ProgressFunc consumes per-iteration progress reports.
type ProgressFunc func(Progress)

func (o Options) normalize() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 30
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10
	}
	if o.BMax <= 0 {
		o.BMax = 300
	}
	if o.MSHPromoteFrac < 0 {
		o.MSHPromoteFrac = 0
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.SearchWorkers <= 0 {
		o.SearchWorkers = 8
	}
	if o.Clock == nil {
		o.Clock = &simclock.Clock{}
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	return o
}

// UNICOOptions returns the paper's full UNICO configuration.
func UNICOOptions(batch, maxIter, bmax int, seed int64) Options {
	return Options{
		BatchSize:      batch,
		MaxIter:        maxIter,
		BMax:           bmax,
		MSHPromoteFrac: 0.15,
		UseRobustness:  true,
		UpdateRule:     mobo.HighFidelity,
		Workers:        8,
		Seed:           seed,
	}
}

// Candidate is one evaluated hardware configuration.
type Candidate struct {
	X           []float64
	Metrics     ppa.Metrics
	Sensitivity float64
	// Feasible means a feasible mapping exists AND the power/area caps
	// hold; only feasible candidates enter the Pareto front.
	Feasible bool
	// Iter is the MOBO iteration that produced the candidate (1-based).
	Iter int
}

// Objectives returns the candidate's raw objective vector
// (latency, power, area[, sensitivity]).
func (c Candidate) Objectives(withR bool) []float64 {
	y := []float64{c.Metrics.LatencyMs, c.Metrics.PowerMW, c.Metrics.AreaMM2}
	if withR {
		y = append(y, c.Sensitivity)
	}
	return y
}

// TracePoint marks the end of one MOBO iteration on the simulated clock, for
// the hypervolume-vs-cost curves of Figs. 7 and 10. The front at that moment
// is not stored: Result.Fronts derives it from the candidates.
type TracePoint struct {
	Iter  int
	Hours float64
}

// Result is the outcome of a co-optimization run.
type Result struct {
	// Front is the feasible Pareto front over (latency, power, area).
	Front []Candidate
	// All holds every candidate evaluated, in evaluation order.
	All []Candidate
	// Trace records the end of every MOBO iteration; Fronts gives the front
	// at each.
	Trace []TracePoint
	// Hours is the total simulated search cost.
	Hours float64
	// Evals is the total number of PPA evaluations spent.
	Evals int
	// CheckpointErr is the first checkpointing or resume failure, if any.
	// A resume fingerprint mismatch (ErrResumeMismatch) aborts the run; a
	// checkpoint write failure latches here and disables further
	// checkpointing but lets the search finish.
	CheckpointErr error
}

// penaltyMetrics stands in for candidates with no feasible mapping: finite,
// far beyond any real design, so surrogates and scalarizations stay
// well-defined.
var penaltyMetrics = ppa.Metrics{
	LatencyMs: 1e9,
	PowerMW:   1e7,
	AreaMM2:   1e5,
	EnergyUJ:  1e16,
}

// RunContext executes Algorithm 1 on the platform. Cancelling ctx stops the
// run at the next safe point — in-flight mapping searches abort promptly,
// the partially-evaluated batch is discarded, and the Result reflects every
// iteration completed before the cancellation. With Options.Checkpoint set,
// a final snapshot captures that same completed-iteration boundary, so a
// resumed run continues bit-identically to an uninterrupted one.
//
// What the run owns besides its options rides ctx: its run ID (runid.With)
// names its requests and its distributed trace. It does not influence the
// search: results are bit-identical with and without.
func RunContext(ctx context.Context, p Platform, opt Options) Result {
	opt = opt.normalize()
	var (
		res      Result
		explorer *mobo.Optimizer
		lastIter int
	)
	if opt.Resume != nil {
		var err error
		explorer, res, lastIter, err = resumeRun(p, opt, opt.Resume)
		if err != nil {
			return Result{CheckpointErr: err}
		}
	} else {
		explorer = mobo.New(p.Space(), moboConfig(opt), opt.Seed)
	}

	// sink is nilled out after the first write failure (latched in
	// res.CheckpointErr) so one bad disk does not fail every iteration.
	sink := opt.Checkpoint
	checkpointFail := func(err error) {
		if res.CheckpointErr == nil {
			res.CheckpointErr = err
		}
		sink = nil
	}
	// The stream position and clock reading at the end of the last
	// *completed* iteration: a cancellation mid-iteration must not leak the
	// discarded batch's RNG draws or clock advances into the final
	// snapshot, or the resumed run would diverge from an uninterrupted one.
	lastRNGPos := explorer.RNGPos()
	lastSeconds := opt.Clock.Seconds()
	// snapshot writes the state at the end of iteration lastIter.
	snapshot := func() {
		if sink == nil {
			return
		}
		err := sink.WriteSnapshot(SnapshotRecord{
			Fingerprint:  fingerprintOf(p, opt),
			Iter:         lastIter,
			Explorer:     ExplorerState{RNGPos: lastRNGPos},
			All:          res.All,
			Trace:        res.Trace,
			Evals:        res.Evals,
			ClockSeconds: lastSeconds,
		})
		if err != nil {
			checkpointFail(fmt.Errorf("core: write snapshot: %w", err))
		}
	}
	if opt.Resume == nil {
		// Genesis snapshot: guarantees the checkpoint carries a fingerprint
		// even if the process dies before iteration 1.
		snapshot()
	}

	shCfg := sh.Config{
		PFrac:           opt.MSHPromoteFrac,
		BMax:            opt.BMax,
		Workers:         opt.Workers,
		EvalCostSeconds: p.EvalCostSeconds(),
		Clock:           opt.Clock,
	}

	// One distributed-trace run per core.Run call: iteration spans get
	// deterministic IDs ("r<run>-it<iter>") whether or not tracing is on.
	traceRun := disttrace.BeginRun()

	for iter := lastIter + 1; iter <= opt.MaxIter; iter++ {
		if ctx.Err() != nil {
			break
		}
		if opt.TimeBudgetHours > 0 && opt.Clock.Hours() >= opt.TimeBudgetHours {
			break
		}
		// The iteration's trace span is the parent of every request the
		// iteration sends; its phase span is the parent of every phase.
		ictx, traceSpan := disttrace.BeginIteration(ctx, traceRun, iter)
		pctx, phaseIter := perfprof.Start(ictx, "iteration")
		_, phaseSuggest := perfprof.Start(pctx, "suggest")
		counts := explorer.Counts()
		xs := explorer.SuggestBatch(opt.BatchSize)
		phaseSuggest.End()
		if len(xs) == 0 {
			phaseIter.End()
			traceSpan.End("ok", nil)
			break
		}
		jobs := make([]mapsearch.Searcher, len(xs))
		_, phaseNewJob := perfprof.Start(pctx, "newjob")
		for i, x := range xs {
			jobs[i] = p.NewJob(x, opt.Seed+int64(iter)*1_000_000+int64(i))
		}
		phaseNewJob.End()

		var outcome sh.Outcome
		if opt.DisableSH {
			outcome = sh.FullBudget(pctx, jobs, shCfg)
		} else {
			outcome = sh.Run(pctx, jobs, shCfg)
		}
		if ctx.Err() != nil {
			// The batch was interrupted mid-search: its evaluations are
			// incomplete and must not enter the result, the surrogate or
			// the checkpoint. Discard it; resume re-runs the iteration.
			CloseJobs(jobs)
			phaseIter.End()
			traceSpan.End("ok", nil)
			break
		}
		res.Evals += outcome.TotalEvals

		batch := res.Absorb(p, xs, jobs, iter)
		batchFeasible := 0
		for _, cand := range batch {
			if cand.Feasible {
				batchFeasible++
			}
		}
		// The jobs' tally is read here, so the jobs are garbage by the
		// surrogate update.
		var tally mapsearch.Tally
		for _, j := range jobs {
			t := j.Tally()
			tally.Calls, tally.Infeasible = tally.Calls+t.Calls, tally.Infeasible+t.Infeasible
		}
		CloseJobs(jobs)
		_, phaseUpdate := perfprof.Start(pctx, "update")
		admitted := explorer.Update(observations(batch, opt.UseRobustness))
		// Surrogate refit overhead on the master (paper Fig. 6b): seconds,
		// negligible next to PPA evaluation but accounted for.
		opt.Clock.Advance(5)
		phaseUpdate.End()

		res.Trace = append(res.Trace, TracePoint{Iter: iter, Hours: opt.Clock.Hours()})

		phaseIter.End()
		// End the iteration's trace span before recording the flight line,
		// so the span log's end event is durable by the time the flight
		// record that references it is.
		traceSpan.End("ok", nil)

		// Flight record at the completed-iteration boundary, durably written
		// BEFORE the checkpoint journal entry: at any crash the artifact then
		// covers every journaled iteration, which is what lets flightrec.Resume
		// stitch at the replay boundary without gaps.
		if opt.Flight != nil {
			// The work is the explorer's from suggest to the end of update,
			// so a resumed run's replay falls in no iteration.
			now := explorer.Counts()
			opt.Flight.RecordIteration(flightrec.Iteration{
				Iter:          iter,
				SimHours:      opt.Clock.Hours(),
				UUL:           durable.ExtFloat(explorer.UUL()),
				Evals:         res.Evals,
				Admitted:      admitted,
				TrainSize:     explorer.TrainSize(),
				BatchFeasible: batchFeasible,
				Front:         frontPPA(res.Front),
				RungAlive:     outcome.RungAlive,
				Work: &flightrec.Work{
					Fits:             now.Fits - counts.Fits,
					Extends:          now.Extends - counts.Extends,
					AcqBounded:       now.Bounded - counts.Bounded,
					AcqSolved:        now.Solved - counts.Solved,
					AcqCompleted:     now.Completed - counts.Completed,
					EngineCalls:      tally.Calls,
					EngineInfeasible: tally.Infeasible,
				},
				TraceSpan: traceSpan.Context().Span,
			})
		}

		// The iteration is complete: journal it, then snapshot on cadence.
		lastIter = iter
		lastRNGPos = explorer.RNGPos()
		lastSeconds = opt.Clock.Seconds()
		if sink != nil {
			err := sink.AppendIteration(IterationRecord{
				Iter:         iter,
				Candidates:   batch,
				Evals:        res.Evals,
				ClockSeconds: lastSeconds,
				RNGPos:       lastRNGPos,
			})
			if err != nil {
				checkpointFail(fmt.Errorf("core: journal iteration %d: %w", iter, err))
			} else if iter%opt.CheckpointEvery == 0 {
				snapshot()
			}
		}

		if opt.Progress != nil {
			opt.Progress(Progress{
				Iter:      iter,
				SimHours:  opt.Clock.Hours(),
				UUL:       explorer.UUL(),
				FrontSize: len(res.Front),
				Evals:     res.Evals,
				Admitted:  admitted,
			})
		}
	}
	// Final snapshot at the last completed-iteration boundary, with the RNG
	// position and clock reading of that boundary (not of any discarded
	// partial batch), so the checkpoint resumes bit-identically.
	snapshot()
	res.Hours = opt.Clock.Hours()
	return res
}

// moboConfig is the explorer configuration of a run of normalized options.
func moboConfig(opt Options) mobo.Config {
	nObj := 3
	if opt.UseRobustness {
		nObj = 4
	}
	cfg := mobo.DefaultConfig(nObj)
	cfg.Rule = opt.UpdateRule
	cfg.SearchWorkers = opt.SearchWorkers
	return cfg
}

// CloseJobs releases jobs that hold external resources (remote jobs delete
// their worker-side state so worker memory does not grow with search
// length); local searchers implement no Close and are skipped. Whoever
// builds a batch of jobs with Platform.NewJob calls it once the batch is
// absorbed or discarded — Run does, and so does every other search method.
func CloseJobs(jobs []mapsearch.Searcher) {
	for _, j := range jobs {
		if c, ok := j.(interface{ Close() error }); ok {
			_ = c.Close()
		}
	}
}

// SearchAt runs one mapping search for the hardware at x outside any
// co-search — the validation procedure of the paper's generalization studies
// — and returns the finished job, already released (its results stay
// readable). The search runs under ctx, so on a remote platform the advance
// carries the run's ID and trace parent and stops when ctx does.
func SearchAt(ctx context.Context, p Platform, x []float64, seed int64, budget int) mapsearch.Searcher {
	job := p.NewJob(x, seed)
	defer CloseJobs([]mapsearch.Searcher{job})
	mapsearch.AdvanceSearcher(ctx, job, budget)
	return job
}

// Absorb folds one evaluated batch into the result: jobs[i] is the finished
// mapping search of the hardware at xs[i], evaluated in iteration (or
// generation) iter. The batch's candidates — scored by the best mapping each
// search found, its sensitivity at the paper's percentile robust.DefaultAlpha
// and the platform's caps, or by the penalty point when it found none — are
// appended to r.All and returned, and r.Front is refreshed by nextFront. Every
// search method builds its candidates here, so "feasible" and "front" mean one
// thing.
func (r *Result) Absorb(p Platform, xs [][]float64, jobs []mapsearch.Searcher, iter int) []Candidate {
	for i, x := range xs {
		cand := Candidate{X: x, Iter: iter}
		if met, ok := jobs[i].Best(); ok {
			cand.Metrics = met
			cand.Sensitivity = robust.Sensitivity(jobs[i].RawHistory(), robust.DefaultAlpha)
			cand.Feasible = withinCaps(p, met)
		} else {
			cand.Metrics = penaltyMetrics
			cand.Sensitivity = robust.RInfeasible
		}
		r.All = append(r.All, cand)
	}
	batch := r.All[len(r.All)-len(xs):]
	r.Front = nextFront(r.Front, batch)
	return batch
}

// Fronts returns the feasible Pareto front at each trace point: the front of
// every candidate of that iteration or earlier. It folds the batches in with
// nextFront, as Absorb does live, so the last front is r.Front.
func (r Result) Fronts() [][]Candidate {
	fronts := make([][]Candidate, len(r.Trace))
	var front []Candidate
	i := 0
	for k, tp := range r.Trace {
		j := i
		for j < len(r.All) && r.All[j].Iter <= tp.Iter {
			j++
		}
		front = nextFront(front, r.All[i:j])
		fronts[k] = front
		i = j
	}
	return fronts
}

// withinCaps applies the platform's power and area constraints.
func withinCaps(p Platform, m ppa.Metrics) bool {
	if cap := p.PowerCapMW(); cap > 0 && m.PowerMW > cap {
		return false
	}
	if cap := p.AreaCapMM2(); cap > 0 && m.AreaMM2 > cap {
		return false
	}
	return true
}

// nextFront is the front after a batch: the front before it plus the batch,
// reduced by paretoFront. A candidate the old front left out is dominated by
// one it kept, or repeats an earlier one, so this equals paretoFront over
// every candidate so far — the same candidates in the same order — at the
// cost of the front and the batch alone.
func nextFront(front, batch []Candidate) []Candidate {
	return paretoFront(append(front[:len(front):len(front)], batch...))
}

// paretoFront extracts the feasible non-dominated candidates over
// (latency, power, area). Of exact duplicates it keeps the first.
func paretoFront(all []Candidate) []Candidate {
	var feas []Candidate
	var pts [][]float64
	for _, c := range all {
		if c.Feasible {
			feas = append(feas, c)
			pts = append(pts, c.Objectives(false))
		}
	}
	if len(feas) == 0 {
		return nil
	}
	idx := pareto.Front(pts)
	front := make([]Candidate, len(idx))
	for i, j := range idx {
		front[i] = feas[j]
	}
	return front
}

// frontPPA extracts the PPA vectors of a front.
func frontPPA(front []Candidate) [][]float64 {
	out := make([][]float64, len(front))
	for i, c := range front {
		out[i] = c.Objectives(false)
	}
	return out
}

// Representative returns the front candidate closest (normalized Euclidean)
// to the origin — the design Tables 1 and 2 report — or false if the front
// is empty.
func Representative(front []Candidate) (Candidate, bool) {
	if len(front) == 0 {
		return Candidate{}, false
	}
	return front[pareto.MinEuclid(frontPPA(front))], true
}

// observations is what the explorer learns from candidates: the live loop
// and resume's replay both derive the explorer's input here.
func observations(cands []Candidate, withR bool) []mobo.Observation {
	obs := make([]mobo.Observation, len(cands))
	for i, c := range cands {
		obs[i] = mobo.Observation{X: c.X, Y: NormalizeObjectives(c.Objectives(withR))}
	}
	return obs
}

// NormalizeObjectives guards against non-finite objective values before they
// reach the surrogate (paranoia against cost-model edge cases).
func NormalizeObjectives(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			v = 1e12
		case v <= 0:
			// A zero objective (ideal sensitivity R = 0) stays meaningful
			// but positive for the log-space surrogate.
			v = 1e-9
		}
		out[i] = v
	}
	return out
}
