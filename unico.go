// Package unico is a from-scratch Go implementation of UNICO — Unified
// Hardware-Software Co-Optimization for Robust Neural Network Acceleration
// (MICRO 2023) — together with every substrate its evaluation depends on:
// the spatial-accelerator analytical cost model, an Ascend-like cycle-level
// simulator, software-mapping search tools, multi-objective Bayesian
// optimization with the high-fidelity surrogate update, modified successive
// halving, the hardware robustness metric R, and the HASCO-like, NSGA-II
// and MOBOHB baselines.
//
// This package is the facade: it exposes platform constructors, a single
// OptimizeContext entry point with method presets, and design/result types that
// hide the internal machinery. Power users can drop to the internal
// packages (importable within this module) for full control; see DESIGN.md
// for the system inventory.
//
// A minimal co-optimization:
//
//	p, err := unico.OpenSourcePlatform(unico.Edge, "MobileNet")
//	if err != nil { ... }
//	res, err := unico.OptimizeContext(ctx, p, unico.Config{})
//	fmt.Println(res.Best.HW, res.Best.LatencyMs)
package unico

import (
	"context"
	"errors"
	"fmt"
	"time"

	"unico/internal/baselines"
	"unico/internal/buildinfo"
	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/lifecycle"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/runid"
	"unico/internal/simclock"
	"unico/internal/workload"
)

// Scenario selects the deployment constraints of the open-source platform.
type Scenario = hw.Scenario

// Deployment scenarios (Tables 1 and 2 of the paper).
const (
	Edge  = hw.Edge  // power < 2 W
	Cloud = hw.Cloud // power < 20 W
)

// Method selects the co-optimization algorithm.
type Method int

const (
	// MethodUNICO is the paper's full algorithm: MOBO with high-fidelity
	// surrogate updates, modified successive halving and the robustness
	// objective.
	MethodUNICO Method = iota
	// MethodHASCO is the HASCO-like baseline (champion update, no early
	// stopping, sequential).
	MethodHASCO
	// MethodMOBOHB is the multi-objective BOHB baseline (default SH).
	MethodMOBOHB
	// MethodNSGAII is the NSGA-II baseline.
	MethodNSGAII
)

func (m Method) String() string {
	switch m {
	case MethodUNICO:
		return "UNICO"
	case MethodHASCO:
		return "HASCO"
	case MethodMOBOHB:
		return "MOBOHB"
	case MethodNSGAII:
		return "NSGAII"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Platform is an accelerator platform ready for co-optimization.
type Platform struct {
	inner core.Platform
}

// OpenSourcePlatform builds the open-source spatial-accelerator platform
// (MAESTRO-like analytical PPA, FlexTensor-like mapping search) for the
// named networks from the model zoo. Listing several networks
// co-optimizes their aggregate PPA, the multi-workload regime of the
// paper's generalization studies.
func OpenSourcePlatform(sc Scenario, networks ...string) (*Platform, error) {
	ws, err := workloads(networks, workload.ByName, "unico: no networks given (see unico.Networks())")
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)}, nil
}

// AscendLikePlatform builds the Ascend-like industrial platform
// (cycle-level CAModel, depth-first buffer-fusion schedule search, 200 mm²
// area cap) for the named networks.
func AscendLikePlatform(networks ...string) (*Platform, error) {
	ws, err := workloads(networks, workload.ByName, "unico: no networks given (see unico.Networks())")
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewAscend(ws, mapsearch.DepthFirst)}, nil
}

// OpenSourcePlatformFromJSON builds the open-source platform for custom
// networks defined in JSON files (see internal/workload's JSON format:
// {"name": ..., "layers": [{"kind": "conv"|"dwconv"|"gemm", ...}]}).
func OpenSourcePlatformFromJSON(sc Scenario, paths ...string) (*Platform, error) {
	ws, err := workloads(paths, workload.LoadJSONFile, "unico: no workload files given")
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)}, nil
}

// AscendLikePlatformFromJSON builds the Ascend-like platform for custom
// networks defined in JSON files.
func AscendLikePlatformFromJSON(paths ...string) (*Platform, error) {
	ws, err := workloads(paths, workload.LoadJSONFile, "unico: no workload files given")
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewAscend(ws, mapsearch.DepthFirst)}, nil
}

// workloads resolves each of names with get; an empty list is the error
// none.
func workloads(names []string, get func(string) (workload.Workload, error), none string) ([]workload.Workload, error) {
	if len(names) == 0 {
		return nil, errors.New(none)
	}
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := get(n)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// RemoteOptions tunes the resilient worker clients built by
// RemoteOpenSourcePlatform. The zero value uses the dist package defaults:
// a 30 s request timeout and no retries.
type RemoteOptions struct {
	// RequestTimeout bounds each worker request (default 30 s). A dead
	// worker then costs one timeout instead of a hung co-search.
	RequestTimeout time.Duration
	// MaxRetries retries requests (every worker route is idempotent) after
	// retryable failures, with exponential backoff and jitter.
	MaxRetries int
	// RetryBackoff is the initial retry delay (default 50 ms, doubling up
	// to MaxBackoff).
	RetryBackoff time.Duration
	// MaxBackoff caps the retry delay (default 2 s). It also caps how long
	// the client honors a server's Retry-After hint when a router or worker
	// sheds load (429/503).
	MaxBackoff time.Duration
}

// RemoteOpenSourcePlatform builds the open-source platform over a pool of
// ppaserver worker URLs — the master/slave deployment of the paper's Fig. 6b.
// Workers that repeatedly fail are evicted from the job rotation and probed
// for re-admission; a single dead worker costs timeouts, not the run.
func RemoteOpenSourcePlatform(sc Scenario, workers []string, opts RemoteOptions, networks ...string) (*Platform, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("unico: no worker URLs given")
	}
	clients := make([]*dist.Client, len(workers))
	for i, u := range workers {
		clients[i] = dist.NewClientOptions(u, nil, dist.Options{
			Timeout:      opts.RequestTimeout,
			MaxRetries:   opts.MaxRetries,
			RetryBackoff: opts.RetryBackoff,
			MaxBackoff:   opts.MaxBackoff,
		})
	}
	rp, err := dist.NewRemoteSpatialPlatform(clients, sc, networks)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: rp}, nil
}

// Networks lists the model-zoo networks available to the platform
// constructors.
func Networks() []string {
	all := workload.All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// Describe renders the hardware configuration encoded at x.
func (p *Platform) Describe(x []float64) string { return p.inner.Describe(x) }

// Config parameterizes OptimizeContext. The zero value runs full UNICO at the
// paper's defaults (N = 30, b_max = 300).
type Config struct {
	// Method selects the algorithm (default MethodUNICO).
	Method Method
	// BatchSize is the hardware batch N per iteration (default 30).
	BatchSize int
	// Iterations is the number of outer iterations (default 10).
	Iterations int
	// BudgetMax is the software-mapping budget b_max (default 300).
	BudgetMax int
	// Workers bounds parallel mapping-search jobs (default 8; the
	// HASCO-like method is sequential by definition).
	Workers int
	// SearchWorkers bounds the parallel acquisition scalarizations inside
	// each surrogate suggestion step and the parallel factor work of each
	// surrogate refit (default 8; applies to UNICO, HASCO and MOBO-HB).
	// Unlike Workers it never enters the checkpoint fingerprint: results
	// are bit-identical at every setting, so it is a pure wall-clock knob
	// and may change across a kill/resume.
	SearchWorkers int
	// Seed makes the run deterministic (default 1).
	Seed int64
	// DisableRobustness drops the sensitivity objective R from UNICO.
	DisableRobustness bool
	// TimeBudgetHours stops the search once the simulated clock passes it.
	TimeBudgetHours float64
	// Cache is ignored. It used to put a content-addressed evaluation cache
	// in front of the PPA engines; measured inside a co-search that cost more
	// host time than the engines it fronted at every hit rate the searches
	// reach (PERFORMANCE.md §6), and it never could change a result or the
	// simulated cost. The field stays declared only because bench/, which a
	// change to the library may not edit, sets it on its local
	// cloud_mapping_cached workload.
	Cache bool
	// CheckpointFile enables crash-safe checkpointing: a write-ahead journal
	// at CheckpointFile+".journal" records every completed iteration, and an
	// atomic snapshot at CheckpointFile is refreshed every CheckpointEvery
	// iterations. Not supported for MethodNSGAII. Checkpointing never
	// changes the search result.
	CheckpointFile string
	// CheckpointEvery is the snapshot cadence in iterations (default 10).
	CheckpointEvery int
	// Resume continues the run recorded at CheckpointFile instead of
	// starting over. The checkpoint must have been written by a run with
	// the same platform, method, seed and sizes; a mismatch is an error
	// (never a silently-hybrid run). With no checkpoint on disk the run
	// starts fresh, so -resume is safe to pass unconditionally.
	Resume bool
	// FlightRecordFile enables the flight recorder: a durable run.jsonl
	// artifact at this path with the run header (run ID, method, seed,
	// options fingerprint), one record per completed iteration (UUL,
	// feasible front, SH survivor curve, eval counters, and the work the
	// iteration did: GP fits and extends, acquisition candidates, engine
	// calls and rejections) and a final summary — readable with
	// cmd/unicoreport or flightrec.Load. With Resume, the
	// recorder appends past the checkpoint replay boundary without
	// duplicating records, so a kill/resume run leaves an artifact
	// record-identical to an uninterrupted one. Recording never changes the
	// search result. Not supported for MethodNSGAII.
	FlightRecordFile string
	// RunID is the correlation ID stamped on the flight-record header and
	// carried by the run (on its context, internal/runid) so its dist
	// requests and distributed-trace spans carry it — two co-searches in one
	// process keep theirs apart. Empty uses the ID ctx already carries, or
	// generates a fresh one.
	RunID string
	// Progress, if non-nil, is invoked after every optimizer iteration
	// with a convergence snapshot (UNICO, HASCO and MOBOHB; NSGA-II does
	// not run on the shared iteration engine).
	Progress func(IterationProgress)
}

// IterationProgress is one per-iteration convergence snapshot.
type IterationProgress struct {
	// Iter is the optimizer iteration (1-based).
	Iter int
	// SimHours is the simulated search cost so far.
	SimHours float64
	// UUL is the high-fidelity rule's current Upper Update Limit
	// (+Inf until the first surrogate update).
	UUL float64
	// FrontSize is the feasible Pareto front size.
	FrontSize int
	// Evaluations is the cumulative mapping budget spent.
	Evaluations int
}

func (c Config) normalize() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 30
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.BudgetMax <= 0 {
		c.BudgetMax = 300
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Design is one hardware configuration with its co-optimized PPA.
type Design struct {
	// HW is the human-readable hardware description.
	HW string
	// X is the encoded design-space point (reusable with EvaluateOn).
	X []float64
	// LatencyMs, PowerMW, AreaMM2 are the PPA of the best mapping found.
	LatencyMs, PowerMW, AreaMM2 float64
	// Sensitivity is the robustness metric R (smaller = more robust).
	Sensitivity float64
}

// Result is the outcome of a co-optimization run.
type Result struct {
	// Front is the feasible Pareto front over (latency, power, area).
	Front []Design
	// Best is the min-Euclidean-distance representative of the front.
	Best Design
	// SimulatedHours is the search cost on the simulated clock (the
	// paper's Cost(h) columns).
	SimulatedHours float64
	// Evaluations is the number of mapping budget units spent.
	Evaluations int
}

// OptimizeContext runs the selected co-optimization method on the platform.
// Cancelling ctx stops the search at the next safe point and returns the
// partial result; with Config.CheckpointFile set, a final checkpoint is
// written first, so a later run with Config.Resume continues exactly where
// this one stopped. (MethodNSGAII does not run on the shared iteration
// engine: cancelling ctx returns its last complete generation, and it has no
// checkpointing.)
func OptimizeContext(ctx context.Context, p *Platform, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("unico: nil platform")
	}
	cfg = cfg.normalize()
	opt, err := cfg.options()
	if err != nil {
		return nil, err
	}

	runID := cfg.RunID
	if runID == "" {
		runID = runid.From(ctx)
	}
	if runID == "" {
		runID = runid.New()
	}

	var res core.Result
	var runErr error
	if cfg.Method == MethodNSGAII {
		res = baselines.NSGAII(runid.With(ctx, runID), p.inner, baselines.NSGAIIOptions{
			Pop:             cfg.BatchSize,
			Generations:     cfg.Iterations,
			BMax:            cfg.BudgetMax,
			Workers:         cfg.Workers,
			Seed:            cfg.Seed,
			Clock:           opt.Clock,
			TimeBudgetHours: cfg.TimeBudgetHours,
		})
	} else {
		spec := lifecycle.Spec{
			Header: flightrec.Header{
				RunID:     runID,
				StartedAt: time.Now().UTC().Format(time.RFC3339), //unicolint:allow detclock wall-clock run metadata in the flight header; excluded from resume identity
				Revision:  buildinfo.Revision(),
				Method:    cfg.Method.String(),
			},
			CheckpointPath: cfg.CheckpointFile,
			Resume:         cfg.Resume,
			FlightPath:     cfg.FlightRecordFile,
		}
		if cfg.Progress != nil {
			spec.Progress = func(p core.Progress) {
				cfg.Progress(IterationProgress{
					Iter:        p.Iter,
					SimHours:    p.SimHours,
					UUL:         p.UUL,
					FrontSize:   p.FrontSize,
					Evaluations: p.Evals,
				})
			}
		}
		res, runErr = lifecycle.Run(ctx, p.inner, opt, spec)
		if errors.As(runErr, new(lifecycle.NotStarted)) {
			// Nothing ran: an artifact could not be opened, or the checkpoint
			// belongs to a different configuration and continuing would
			// corrupt both.
			return nil, runErr
		}
	}

	out := &Result{SimulatedHours: res.Hours, Evaluations: res.Evals}
	for _, c := range res.Front {
		out.Front = append(out.Front, design(p, c))
	}
	if rep, ok := core.Representative(res.Front); ok {
		out.Best = design(p, rep)
	}
	// A mid-run checkpoint or flight-record write failure is
	// non-fatal to the search; hand back the result along with it so callers
	// know an artifact is incomplete.
	return out, runErr
}

// options maps the config onto the shared iteration engine's options (a
// method preset plus the knobs every preset honours), and rejects what the
// method cannot do. MethodNSGAII runs its own loop and takes only the clock.
func (c Config) options() (core.Options, error) {
	var opt core.Options
	switch c.Method {
	case MethodUNICO:
		opt = core.UNICOOptions(c.BatchSize, c.Iterations, c.BudgetMax, c.Seed)
		opt.UseRobustness = !c.DisableRobustness
		opt.Workers = c.Workers
	case MethodHASCO:
		opt = baselines.HASCOOptions(c.BatchSize, c.Iterations, c.BudgetMax, c.Seed)
	case MethodMOBOHB:
		opt = baselines.MOBOHBOptions(c.BatchSize, c.Iterations, c.BudgetMax, c.Seed)
		opt.Workers = c.Workers
	case MethodNSGAII:
		if c.CheckpointFile != "" {
			return opt, fmt.Errorf("unico: checkpointing is not supported for MethodNSGAII")
		}
		if c.FlightRecordFile != "" {
			return opt, fmt.Errorf("unico: flight recording is not supported for MethodNSGAII")
		}
	default:
		return opt, fmt.Errorf("unico: unknown method %v", c.Method)
	}
	opt.SearchWorkers = c.SearchWorkers
	opt.Clock = &simclock.Clock{}
	opt.TimeBudgetHours = c.TimeBudgetHours
	opt.CheckpointEvery = c.CheckpointEvery
	return opt, nil
}

func design(p *Platform, c core.Candidate) Design {
	return Design{
		HW:          p.inner.Describe(c.X),
		X:           c.X,
		LatencyMs:   c.Metrics.LatencyMs,
		PowerMW:     c.Metrics.PowerMW,
		AreaMM2:     c.Metrics.AreaMM2,
		Sensitivity: c.Sensitivity,
	}
}

// EvaluateOn runs an individual software-mapping search for an existing
// design on a (possibly unseen) network and returns the achieved PPA — the
// validation procedure of the paper's generalization studies. The search
// runs under ctx (on a remote platform its requests carry the run ID ctx
// holds and stop when ctx does) and releases its job when done.
func EvaluateOn(ctx context.Context, p *Platform, d Design, budget int, seed int64) (Design, error) {
	if budget <= 0 {
		budget = 300
	}
	met, ok := core.SearchAt(ctx, p.inner, d.X, seed, budget).Best()
	if !ok {
		return Design{}, fmt.Errorf("unico: no feasible mapping for %s on this platform", d.HW)
	}
	return Design{
		HW: d.HW, X: d.X,
		LatencyMs: met.LatencyMs, PowerMW: met.PowerMW, AreaMM2: met.AreaMM2,
	}, nil
}
