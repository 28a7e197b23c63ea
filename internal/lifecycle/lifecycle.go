// Package lifecycle runs one co-search with its artifacts and observers
// attached. It is the only place that opens a checkpoint or a flight record
// for writing, so the order in which a run touches the world is decided once:
//
//  1. validate the resume fingerprint (read-only: a refused resume leaves
//     every file and the dashboard exactly as they were),
//  2. open the checkpoint,
//  3. create or resume the flight record,
//  4. announce the run to the dashboard store,
//  5. core.RunContext,
//  6. write the summary and close.
//
// Everything the run reports through is a value in the Spec; creating those
// values, naming the files and deciding what a setup failure means stay with
// the caller (the unico facade fails; internal/experiments reruns without
// persistence).
package lifecycle

import (
	"context"

	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/perfprof"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// Spec is what one run is wired to. The zero value runs bare.
type Spec struct {
	// Header carries the identity the caller knows: RunID, StartedAt,
	// Revision, Method. Run fills in the workload, the sizes and the
	// fingerprint the checkpoint contract validates, and attaches RunID to
	// the context the search runs under.
	Header flightrec.Header
	// CheckpointPath, when set, journals and snapshots the run there; with
	// Resume the run continues from the checkpoint found there, if any.
	CheckpointPath string
	Resume         bool
	// FlightPath, when set, records the run's flight artifact there.
	FlightPath string
	// Tracer, when non-nil, receives the run's phases as Chrome trace events;
	// it rides the run's context. Progress becomes the core.Options hook.
	Tracer   *telemetry.Tracer
	Progress core.ProgressFunc
	// Live, when non-nil, is the dashboard store the run reports to.
	Live *flightrec.Live
}

// NotStarted wraps an error that stopped Run before the search began. A
// refused resume (core.ErrResumeMismatch) also guarantees nothing was written.
type NotStarted struct{ error }

func (e NotStarted) Unwrap() error { return e.error }

// Run executes one co-search under spec. An error that is not a NotStarted
// comes with the finished Result: a checkpoint or flight-record write failed
// mid-run, which never changes the search.
func Run(ctx context.Context, p core.Platform, opt core.Options, spec Spec) (core.Result, error) {
	opt.Progress = spec.Progress

	if spec.CheckpointPath != "" {
		if spec.Resume && checkpoint.Exists(spec.CheckpointPath) {
			rs, err := checkpoint.Load(spec.CheckpointPath)
			if err == nil {
				err = rs.Check(p, opt)
			}
			if err != nil {
				return core.Result{}, NotStarted{err}
			}
			opt.Resume = rs
		}
		ck, err := checkpoint.Create(spec.CheckpointPath)
		if err != nil {
			return core.Result{}, NotStarted{err}
		}
		defer ck.Close()
		opt.Checkpoint = ck
	}

	hdr := spec.Header
	if wp, ok := p.(interface{ Workload() workload.Workload }); ok {
		hdr.Workload = wp.Workload().Name
	}
	hdr.Seed, hdr.Batch, hdr.MaxIter, hdr.BMax = opt.Seed, opt.BatchSize, opt.MaxIter, opt.BMax
	hdr.Fingerprint = core.FingerprintFor(p, opt)

	var flight *flightrec.Recorder
	if spec.FlightPath != "" {
		var err error
		if opt.Resume != nil {
			flight, err = flightrec.Resume(spec.FlightPath, hdr, opt.Resume.LastIter())
		} else {
			flight, err = flightrec.Create(spec.FlightPath, hdr)
		}
		if err != nil {
			return core.Result{}, NotStarted{err}
		}
		defer flight.Close() // no-op after Finish
		opt.Flight = flight
	}

	if spec.Live != nil {
		// A resumed run seeds the dashboard with the history its artifact
		// kept, so the live curve covers the whole run, not just the suffix.
		var kept []flightrec.Iteration
		if flight != nil && opt.Resume != nil {
			if d, _, err := flightrec.Load(spec.FlightPath); err == nil {
				kept = d.Iters
			}
		}
		spec.Live.StartRun(hdr, kept...)
		if flight != nil {
			opt.Flight = flightrec.Tee(flight, spec.Live)
		} else {
			opt.Flight = spec.Live
		}
	}

	// The run's identity and tracer ride its context: the run ID names its
	// requests and its distributed trace.
	res := core.RunContext(perfprof.WithTracer(runid.With(ctx, hdr.RunID), spec.Tracer), p, opt)

	// The recorder and the store fill the summary's convergence fields from
	// the last iteration; this side supplies what that stream cannot know.
	sum := flightrec.Summary{Interrupted: ctx.Err() != nil}
	err := res.CheckpointErr
	if flight != nil {
		if ferr := flight.Finish(sum); err == nil {
			err = ferr
		}
	}
	if spec.Live != nil {
		spec.Live.FinishRun(sum)
	}
	return res, err
}
