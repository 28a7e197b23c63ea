// Package lifecycle runs one co-search with its artifacts and observers
// attached. It is the only place that opens a checkpoint or a flight record
// for writing, so the order in which a run touches the world is decided once:
//
//  1. validate the resume fingerprint (read-only: a refused resume leaves
//     every file exactly as it was),
//  2. open the checkpoint,
//  3. create or resume the flight record,
//  4. core.RunContext,
//  5. write the summary and close.
//
// Everything the run reports through is a value in the Spec; creating those
// values, naming the files and deciding what a setup failure means stay with
// the caller (the unico facade fails; internal/experiments reruns without
// persistence).
package lifecycle

import (
	"context"
	"log"

	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/runid"
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
	// Progress becomes the core.Options hook.
	Progress core.ProgressFunc
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
			log.Printf("resuming %s after iteration %d; %d torn journal records truncated",
				spec.CheckpointPath, rs.LastIter(), rs.TornRecords)
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

	// The run's identity rides its context: the run ID names its requests
	// and its distributed trace.
	res := core.RunContext(runid.With(ctx, hdr.RunID), p, opt)

	err := res.CheckpointErr
	if flight != nil {
		// The summary holds only what the iteration stream cannot know.
		if ferr := flight.Finish(flightrec.Summary{Interrupted: ctx.Err() != nil}); err == nil {
			err = ferr
		}
	}
	return res, err
}
