// Checkpoint contract of the co-optimizer: the record types a run emits
// after every iteration (journal) and every N iterations (snapshot), the
// sink interface a persistence layer implements (internal/checkpoint is the
// file-backed one), and the resume path that reconstructs a run's exact
// mid-flight state from those records.
//
// The determinism contract that makes resume exact: the MOBO explorer
// consumes RNG only inside SuggestBatch, never in Update, and every other
// stage of an iteration (successive halving with per-job seeds, GP refits,
// Pareto extraction) is a deterministic function of its inputs. The
// explorer's state is therefore a function of the batches it was given, so
// resume rebuilds it one way only: a fresh explorer replays every recorded
// iteration's candidates through Update, the snapshot's and then the
// journal's, and fast-forwards its generator to the recorded RNG stream
// position past the suggestion draws that are not re-executed.
package core

import (
	"errors"
	"fmt"

	"unico/internal/mobo"
	"unico/internal/robust"
)

// ErrResumeMismatch reports that a checkpoint was produced by a run with a
// different configuration (platform, seed, batch size, ...) than the one
// trying to resume from it. Resuming anyway would silently produce a hybrid
// run that matches neither configuration, so Run refuses.
var ErrResumeMismatch = errors.New("core: checkpoint does not match run configuration")

// Fingerprint identifies the (platform, options) combination a checkpoint
// belongs to. Every field influences the search trajectory, so any mismatch
// means the checkpointed state cannot be continued bit-identically.
// Options.SearchWorkers is deliberately absent: the acquisition pool is
// bit-identical at every worker count, so a checkpoint taken at one setting
// may resume at any other.
type Fingerprint struct {
	Platform       string          `json:"platform"`
	SpaceDim       int             `json:"space_dim"`
	Seed           int64           `json:"seed"`
	BatchSize      int             `json:"batch_size"`
	BMax           int             `json:"b_max"`
	MSHPromoteFrac float64         `json:"msh_promote_frac"`
	DisableSH      bool            `json:"disable_sh"`
	UseRobustness  bool            `json:"use_robustness"`
	UpdateRule     mobo.UpdateRule `json:"update_rule"`
	Workers        int             `json:"workers"`
	// Alpha is robust.DefaultAlpha in every run. It stays in the record so
	// fingerprints keep their bytes, and checkpoints written while it was an
	// option still resume.
	Alpha float64 `json:"alpha"`
}

// fingerprintOf derives the fingerprint of a normalized (platform, options)
// pair. The platform is identified by its concrete Go type and design-space
// dimensionality — coarse, but enough to catch resuming a spatial
// checkpoint on an Ascend-like run or vice versa.
func fingerprintOf(p Platform, opt Options) Fingerprint {
	return Fingerprint{
		Platform:       fmt.Sprintf("%T", p),
		SpaceDim:       p.Space().Dim(),
		Seed:           opt.Seed,
		BatchSize:      opt.BatchSize,
		BMax:           opt.BMax,
		MSHPromoteFrac: opt.MSHPromoteFrac,
		DisableSH:      opt.DisableSH,
		UseRobustness:  opt.UseRobustness,
		UpdateRule:     opt.UpdateRule,
		Workers:        opt.Workers,
		Alpha:          robust.DefaultAlpha,
	}
}

// FingerprintFor exposes the run fingerprint of a (platform, options) pair
// so other per-run artifacts — the flight recorder's header — carry the same
// identity the checkpoint contract validates on resume. The options are
// normalized first, matching what a checkpoint of the run would record.
func FingerprintFor(p Platform, opt Options) Fingerprint {
	return fingerprintOf(p, opt.normalize())
}

// IterationRecord is the write-ahead journal entry for one completed MOBO
// iteration: everything resume needs to replay the iteration's effect on
// the explorer and the result without re-running its mapping searches.
type IterationRecord struct {
	// Iter is the 1-based iteration index.
	Iter int `json:"iter"`
	// Candidates are the evaluated candidates of this iteration, in
	// suggestion order (penalty metrics and R_infeasible for candidates with
	// no feasible mapping): the explorer's suggestions and observations.
	Candidates []Candidate `json:"candidates"`
	// Evals is the cumulative PPA evaluation count after this iteration.
	Evals int `json:"evals"`
	// ClockSeconds is the simulated clock reading at the end of this
	// iteration.
	ClockSeconds float64 `json:"clock_seconds"`
	// RNGPos is the explorer's RNG stream position at the end of this
	// iteration.
	RNGPos uint64 `json:"rng_pos"`
}

// SnapshotRecord is an atomic checkpoint of every candidate so far: a run
// resumed from it needs no journal record written before it.
type SnapshotRecord struct {
	// Fingerprint identifies the run configuration the snapshot belongs to.
	Fingerprint Fingerprint `json:"fingerprint"`
	// Iter is the last completed iteration (0 for a genesis snapshot).
	Iter int `json:"iter"`
	// Explorer is where the MOBO explorer's RNG stream stood.
	Explorer ExplorerState `json:"explorer"`
	// All holds every candidate evaluated so far, in evaluation order. The
	// fronts and the explorer's observations are recomputed from it on resume.
	All []Candidate `json:"all"`
	// Trace is each completed iteration's end on the simulated clock.
	Trace []TracePoint `json:"trace"`
	// Evals is the cumulative PPA evaluation count.
	Evals int `json:"evals"`
	// ClockSeconds is the simulated clock reading.
	ClockSeconds float64 `json:"clock_seconds"`
}

// ExplorerState is what a snapshot stores of the MOBO explorer: its RNG
// stream position. Everything else the explorer holds is rebuilt by
// replaying the snapshot's candidates. Snapshots of older versions stored the
// whole optimizer state under this key; decoding keeps rng_pos and ignores
// the rest.
type ExplorerState struct {
	// RNGPos is the explorer's RNG stream position (draws since seeding).
	RNGPos uint64 `json:"rng_pos"`
}

// CheckpointSink receives a run's checkpoint stream. AppendIteration must
// durably journal the record before returning; WriteSnapshot must replace
// any previous snapshot atomically (a crash mid-write leaves the old
// snapshot intact). internal/checkpoint provides the file-backed
// implementation; tests use in-memory sinks.
type CheckpointSink interface {
	AppendIteration(rec IterationRecord) error
	WriteSnapshot(snap SnapshotRecord) error
}

// ResumeState is a loaded checkpoint: the newest snapshot plus the journal
// records written after it. internal/checkpoint's Load builds it from disk.
type ResumeState struct {
	Snapshot SnapshotRecord
	// Tail holds the journal records with Iter > Snapshot.Iter, ascending.
	Tail []IterationRecord
	// TornRecords counts the torn trailing journal records the load
	// truncated: the residue of a crash mid-append, so 0 or 1.
	TornRecords int
}

// LastIter returns the last completed iteration the state covers.
func (rs *ResumeState) LastIter() int {
	if n := len(rs.Tail); n > 0 {
		return rs.Tail[n-1].Iter
	}
	return rs.Snapshot.Iter
}

// Check reports whether the state was checkpointed by a run of this
// (platform, options) pair; the error wraps ErrResumeMismatch. RunContext
// refuses a mismatched state itself — callers that open other artifacts of
// the run for writing check first, so a refused resume touches nothing.
func (rs *ResumeState) Check(p Platform, opt Options) error {
	if want := FingerprintFor(p, opt); rs.Snapshot.Fingerprint != want {
		return fmt.Errorf("%w: checkpoint %+v, run %+v", ErrResumeMismatch, rs.Snapshot.Fingerprint, want)
	}
	return nil
}

// resumeRun reconstructs the mid-flight run state from a loaded checkpoint:
// the explorer rebuilt by replay, the result's candidate list, trace and eval
// count extended from the tail records, its front derived from them, and the
// clock fast-forwarded to the last recorded reading. Returns the explorer,
// the partial result, and the last completed iteration.
func resumeRun(p Platform, opt Options, rs *ResumeState) (*mobo.Optimizer, Result, int, error) {
	explorer, err := ReplayExplorer(p, opt, rs)
	if err != nil {
		return nil, Result{}, 0, err
	}

	var res Result
	res.All = append([]Candidate(nil), rs.Snapshot.All...)
	res.Trace = append([]TracePoint(nil), rs.Snapshot.Trace...)
	res.Evals = rs.Snapshot.Evals
	lastSeconds := rs.Snapshot.ClockSeconds
	for _, rec := range rs.Tail {
		res.All = append(res.All, rec.Candidates...)
		res.Evals = rec.Evals
		res.Trace = append(res.Trace, TracePoint{Iter: rec.Iter, Hours: rec.ClockSeconds / 3600})
		lastSeconds = rec.ClockSeconds
	}
	if fronts := res.Fronts(); len(fronts) > 0 {
		res.Front = fronts[len(fronts)-1]
	}

	// Fast-forward the simulated clock to the recorded reading.
	opt.Clock.Reset()
	if lastSeconds > 0 {
		opt.Clock.Advance(lastSeconds)
	}
	return explorer, res, rs.LastIter(), nil
}

// ReplayExplorer rebuilds the MOBO explorer a run of (p, opt) holds at the
// end of the checkpointed iterations: a fresh explorer is fed every recorded
// iteration's candidates through Update, one iteration's batch at a time —
// the snapshot's, grouped by Candidate.Iter, then each journal record's —
// and its RNG is sought to the last recorded stream position. The candidates
// are bytes read from disk, so each iteration must be present, in order, and
// every candidate must be a point of the space. A state of another run's
// configuration is refused with ErrResumeMismatch.
func ReplayExplorer(p Platform, opt Options, rs *ResumeState) (*mobo.Optimizer, error) {
	opt = opt.normalize()
	if err := rs.Check(p, opt); err != nil {
		return nil, err
	}
	space := p.Space()
	explorer := mobo.New(space, moboConfig(opt), opt.Seed)
	feed := func(cands []Candidate, from, to int) error {
		for iter := from; iter <= to; iter++ {
			n := 0
			for ; n < len(cands) && cands[n].Iter == iter; n++ {
				if len(cands[n].X) != space.Dim() {
					return fmt.Errorf("core: resume: iteration %d: candidate has %d coordinates, space has %d", iter, len(cands[n].X), space.Dim())
				}
			}
			if n == 0 {
				return fmt.Errorf("core: resume: iteration %d: no candidates", iter)
			}
			explorer.Update(observations(cands[:n], opt.UseRobustness))
			cands = cands[n:]
		}
		if len(cands) > 0 {
			return fmt.Errorf("core: resume: candidate of iteration %d after iteration %d", cands[0].Iter, to)
		}
		return nil
	}
	if err := feed(rs.Snapshot.All, 1, rs.Snapshot.Iter); err != nil {
		return nil, err
	}
	last, pos := rs.Snapshot.Iter, rs.Snapshot.Explorer.RNGPos
	for _, rec := range rs.Tail {
		if rec.Iter != last+1 {
			return nil, fmt.Errorf("core: resume: journal gap: record for iteration %d after %d", rec.Iter, last)
		}
		if err := feed(rec.Candidates, rec.Iter, rec.Iter); err != nil {
			return nil, err
		}
		last, pos = rec.Iter, rec.RNGPos
	}
	// Replay skips SuggestBatch, the only RNG consumer: catch the stream up
	// to where the last recorded iteration left it.
	if err := explorer.SeekRNG(pos); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	return explorer, nil
}
