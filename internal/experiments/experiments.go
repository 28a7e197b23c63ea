// Package experiments implements one runner per table and figure of the
// paper's evaluation (Section 4). Each runner executes the co-search
// methods under comparison on simulated clocks, prints the same rows or
// series the paper reports, and returns a structured result the benchmark
// harness (bench_test.go) and the experiments CLI (cmd/experiments) share.
//
// Absolute numbers are not comparable to the paper — the PPA substrate here
// is a synthetic model (see DESIGN.md) — but every runner reproduces the
// paper's *shape*: who wins, by roughly what factor, and where crossovers
// fall. EXPERIMENTS.md records paper-versus-measured for each experiment.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/lifecycle"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/runid"
	"unico/internal/workload"
)

// now stamps run metadata (the StartedAt field of flight-record headers).
// It is the package's single wall-clock injection point: tests pin it to a
// fixed instant, and the timestamp is informational only — resume identity
// and every comparative result run on simulated clocks.
var now = time.Now //unicolint:allow detclock single injection point for run-metadata timestamps; overridden in tests

// Scale sets the experiment sizes. PaperScale mirrors the paper's settings;
// SmallScale keeps every runner fast enough for unit benches while
// preserving the comparative shapes.
type Scale struct {
	// Batch is UNICO's hardware batch size N.
	Batch int
	// MaxIter is the number of MOBO iterations.
	MaxIter int
	// BMax is the software-mapping budget b_max.
	BMax int
	// HASCOIter is the HASCO-like baseline's iteration count (it spends far
	// more budget per iteration, so it gets fewer).
	HASCOIter int
	// UNICOIter is UNICO's iteration count in head-to-head tables; UNICO's
	// iterations are several times cheaper (batched, early-stopped,
	// parallel), so it affords more of them at a fraction of the cost.
	UNICOIter int
	// NSGAPop and NSGAGen size the NSGA-II baseline.
	NSGAPop, NSGAGen int
	// AscendBatch, AscendIter, AscendBMax size the Fig. 11 study
	// (paper: N = 8, MaxIter = 30, b_max = 200).
	AscendBatch, AscendIter, AscendBMax int
	// Seed makes every runner deterministic.
	Seed int64
	// Context, when non-nil, cancels in-flight co-search runs (SIGINT
	// handling in cmd/experiments) and carries the sweep's run ID
	// (runid.With); nil behaves like context.Background().
	Context context.Context
	// CheckpointDir, when set, gives every core co-search run within an
	// experiment a crash-safe checkpoint file named after the run.
	CheckpointDir string
	// Resume continues runs from existing checkpoints in CheckpointDir
	// (completed runs replay from their records instead of re-searching).
	Resume bool
	// FlightDir, when set, gives every core co-search run a flight-record
	// artifact named after the run (<name>.run.jsonl, mirroring the
	// checkpoint naming), viewable with cmd/unicoreport.
	FlightDir string
	// SearchWorkers, when positive, bounds the parallel acquisition
	// scalarizations of every core co-search run (core.Options.SearchWorkers).
	// Results are bit-identical at every setting, so comparative tables are
	// unaffected — it only changes how long they take to produce.
	SearchWorkers int
	// Progress, when non-nil, observes every core co-search run.
	Progress core.ProgressFunc
}

// run executes one core co-search — UNICO, its ablations and the HASCO and
// MOBOHB baselines alike — through the run lifecycle: cancellable, observed,
// and, when CheckpointDir/FlightDir are set, with <name>.ckpt and
// <name>.run.jsonl artifacts. An artifact that cannot be opened degrades to
// a run without persistence (reported on stderr) rather than failing the
// experiment; a checkpoint from a different configuration is refused,
// untouched, with an empty Result whose CheckpointErr wraps
// core.ErrResumeMismatch. NSGA-II keeps its own generation loop
// (baselines.NSGAII under s.ctx()): cancellable, but not checkpointed or
// recorded.
func (s Scale) run(name string, p core.Platform, opt core.Options) core.Result {
	ctx := s.ctx()
	if s.SearchWorkers > 0 {
		opt.SearchWorkers = s.SearchWorkers
	}
	spec := lifecycle.Spec{
		// The run name doubles as the header's method field — it already
		// encodes the experiment and algorithm ("fig7-edge-unico-seed1").
		Header: flightrec.Header{
			RunID:     runid.From(ctx),
			StartedAt: now().UTC().Format(time.RFC3339),
			Method:    name,
		},
		Resume:   s.Resume,
		Progress: s.Progress,
	}
	if s.CheckpointDir != "" {
		spec.CheckpointPath = filepath.Join(s.CheckpointDir, name+".ckpt")
	}
	if s.FlightDir != "" {
		spec.FlightPath = filepath.Join(s.FlightDir, name+".run.jsonl")
	}
	res, err := lifecycle.Run(ctx, p, opt, spec)
	if errors.Is(err, core.ErrResumeMismatch) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		return core.Result{CheckpointErr: err}
	}
	if errors.As(err, new(lifecycle.NotStarted)) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v (running without persistence)\n", name, err)
		spec.CheckpointPath, spec.FlightPath = "", ""
		res, err = lifecycle.Run(ctx, p, opt, spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
	}
	return res
}

// ctx is the context every search of the sweep runs under.
func (s Scale) ctx() context.Context {
	if s.Context == nil {
		//unicolint:allow ctxflow explicit opt-out: a nil Scale.Context means the experiment owns its lifetime end-to-end
		return context.Background()
	}
	return s.Context
}

// PaperScale returns the paper's experimental settings (Section 4.1/4.6).
func PaperScale() Scale {
	return Scale{
		Batch: 30, MaxIter: 12, BMax: 300,
		HASCOIter: 12, UNICOIter: 36,
		NSGAPop: 30, NSGAGen: 10,
		AscendBatch: 8, AscendIter: 30, AscendBMax: 200,
		Seed: 1,
	}
}

// SmallScale returns a configuration small enough for benchmarks and CI
// while keeping all comparative behaviour observable.
func SmallScale() Scale {
	return Scale{
		Batch: 10, MaxIter: 4, BMax: 60,
		HASCOIter: 4, UNICOIter: 12,
		NSGAPop: 10, NSGAGen: 3,
		AscendBatch: 6, AscendIter: 4, AscendBMax: 40,
		Seed: 1,
	}
}

// spatialPlatform builds the open-source platform for a workload set.
func spatialPlatform(sc hw.Scenario, ws ...workload.Workload) *platform.Spatial {
	return platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)
}

// evalHWOnNetwork runs an individual software-mapping search for the
// hardware at x on a single network and returns the achieved metrics — the
// validation procedure of Sections 4.3 and 4.4.
func evalHWOnNetwork(ctx context.Context, sc hw.Scenario, x []float64, net workload.Workload, bmax int, seed int64) (core.Candidate, bool) {
	met, ok := core.SearchAt(ctx, spatialPlatform(sc, net), x, seed, bmax).Best()
	return core.Candidate{X: x, Metrics: met, Feasible: ok}, ok
}

// minEuclidDistance returns the normalized distance-to-origin of a PPA
// point, with per-objective scales taken from the pooled set — the quantity
// Fig. 9 compares between UNICO- and HASCO-found hardware.
func minEuclidDistance(point []float64, pool [][]float64) float64 {
	d := len(point)
	scale := make([]float64, d)
	for _, p := range pool {
		for j, v := range p {
			if v > scale[j] {
				scale[j] = v
			}
		}
	}
	sum := 0.0
	for j, v := range point {
		s := scale[j]
		if s <= 0 {
			s = 1
		}
		sum += (v / s) * (v / s)
	}
	return math.Sqrt(sum)
}

// fprintf writes formatted output, ignoring nil writers so runners can be
// called silently from benchmarks.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
