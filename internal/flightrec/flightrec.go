// Package flightrec is the co-search flight recorder: a per-run, durable,
// crash-tolerant `run.jsonl` artifact that captures how a search converged —
// the run's identity (seed, platform, options fingerprint, run ID), one
// record per completed optimizer iteration (feasible-front points, UUL,
// successive-halving survivor curve, eval counters), and a final summary
// marking the run finished — plus the tools that read it back: the SVG/HTML
// report the offline `unicoreport` tool renders from it (of a finished run or
// of one still writing), and the record-by-record comparison of two runs
// behind `unicoreport -diff`. The record stores no hypervolume: the report
// derives its curve from the stored fronts.
//
// The artifact is line-oriented JSON: the first line is the header, then one
// iteration record per completed iteration in order, then (for runs that
// finished) one summary line. Every iteration append is flushed and fsynced
// before the search proceeds, so a crash loses at most the iteration in
// flight — the same durability boundary as the checkpoint write-ahead
// journal, which is what makes resumed artifacts stitch together exactly
// (see Resume).
//
// The package deliberately has no dependency on the co-optimizer: record
// types are self-contained, so internal/core can import it (mirroring how
// internal/checkpoint sits below core on the other side).
package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"

	"unico/internal/durable"
)

// Record type tags, the "type" field of each artifact line.
const (
	TypeHeader    = "header"
	TypeIteration = "iteration"
	TypeSummary   = "summary"
)

// Header is the artifact's first line: the run's identity. StartedAt is
// wall-clock and RunID is random, so comparisons between artifacts (the
// kill/resume identity test, run diffs) key on the deterministic fields and
// the iteration/summary records instead.
type Header struct {
	Type string `json:"type"`
	// RunID is the correlation ID every log record and dist request of this
	// run carries (internal/runid).
	RunID string `json:"run_id"`
	// StartedAt is the wall-clock start time, RFC 3339.
	StartedAt string `json:"started_at,omitempty"`
	// Revision is the VCS revision the recording binary was built from
	// (internal/buildinfo), correlating the artifact with bench baselines
	// and dashboard series of the same commit.
	Revision string `json:"revision,omitempty"`
	// Method is the co-optimization method name ("UNICO", "HASCO", ...).
	Method string `json:"method,omitempty"`
	// Workload is the (combined) workload name under co-optimization.
	Workload string `json:"workload,omitempty"`
	// Seed, Batch, MaxIter, BMax are the run sizes.
	Seed    int64 `json:"seed"`
	Batch   int   `json:"batch,omitempty"`
	MaxIter int   `json:"max_iter,omitempty"`
	BMax    int   `json:"b_max,omitempty"`
	// Fingerprint is the checkpoint contract's run fingerprint (platform
	// type, space dim, seed, sizes, ablation switches), carried as an opaque
	// JSON object so this package stays below internal/core.
	Fingerprint any `json:"fingerprint,omitempty"`
}

// Iteration is one per-iteration convergence record — the data behind the
// paper's hypervolume-vs-cost curves (Figs. 7 and 10), self-recorded.
// Every field is a deterministic function of the run configuration, so a
// resumed run appends records identical to the ones an uninterrupted run
// would have written.
type Iteration struct {
	Type string `json:"type"`
	// Iter is the optimizer iteration (1-based).
	Iter int `json:"iter"`
	// SimHours is the simulated search cost at the end of the iteration.
	SimHours float64 `json:"sim_hours"`
	// UUL is the high-fidelity rule's Upper Update Limit (+Inf until the
	// first surrogate update).
	UUL durable.ExtFloat `json:"uul"`
	// Evals is the cumulative mapping budget spent.
	Evals int `json:"evals"`
	// Admitted is how many of this batch's samples entered the surrogate
	// training set; TrainSize is the set size afterwards.
	Admitted  int `json:"admitted"`
	TrainSize int `json:"train_size,omitempty"`
	// BatchFeasible counts this batch's feasible candidates.
	BatchFeasible int `json:"batch_feasible"`
	// Front holds the feasible Pareto front's (latency, power, area) points.
	Front [][]float64 `json:"front,omitempty"`
	// RungAlive is the successive-halving survivor curve of this batch: the
	// candidate count alive after each rung, starting with the full batch.
	RungAlive []int `json:"rung_alive,omitempty"`
	// TraceSpan cross-references the distributed-trace span of this
	// iteration (internal/disttrace, "r<run>-it<iter>"). The ID is a pure
	// function of the run ordinal and iteration number, and the field is
	// absent entirely when tracing is disabled — both properties keep
	// flight records bit-identical across kill/resume and across
	// traced/untraced comparison runs.
	TraceSpan string `json:"trace_span,omitempty"`
}

// Summary is the artifact's final line, written when a run returns: its
// presence marks the run finished. A killed run leaves no summary; resuming
// truncates any summary before appending, so a finished artifact always has
// exactly one, matching an uninterrupted run. The run's totals are those of
// its last iteration record, so the summary holds only what the iteration
// stream cannot know. (Artifacts written before this also carried the totals
// here; readers ignore them.)
type Summary struct {
	Type string `json:"type"`
	// Interrupted records that the run was cancelled (SIGINT/SIGTERM) before
	// MaxIter; the artifact then covers the completed prefix.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Sink receives per-iteration flight records from a running co-search.
// internal/core emits to it after every completed iteration, at the same
// boundary as the checkpoint journal.
type Sink interface {
	RecordIteration(it Iteration)
}

// RunData is a fully loaded artifact.
type RunData struct {
	Header  Header
	Iters   []Iteration
	Summary *Summary
}

// FirstDifference reports where two artifacts first disagree: "" when both
// hold the same iteration records in the same order and the same summary (or
// both none), otherwise the first record that differs, both sides as JSON.
// Headers are not compared: the run ID, start time and revision change with
// every process, and a resumed run's configuration is already checked
// against its checkpoint's fingerprint.
func FirstDifference(a, b *RunData) string {
	for i := 0; i < max(len(a.Iters), len(b.Iters)); i++ {
		var x, y any
		if i < len(a.Iters) {
			x = a.Iters[i]
		}
		if i < len(b.Iters) {
			y = b.Iters[i]
		}
		if !reflect.DeepEqual(x, y) {
			return differs(fmt.Sprintf("iteration record %d", i+1), x, y)
		}
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		return differs("summary", a.Summary, b.Summary)
	}
	return ""
}

// differs renders one mismatched record pair; an absent record is null.
// Records decoded from JSON encode again, so Marshal cannot fail here.
func differs(what string, x, y any) string {
	jx, _ := json.Marshal(x)
	jy, _ := json.Marshal(y)
	return fmt.Sprintf("%s differs:\n  a: %s\n  b: %s", what, jx, jy)
}

// Recorder is the file-backed flight recorder: a durable.Log in Lines
// framing. Safe for use by one run at a time; methods are serialized
// internally.
type Recorder struct {
	mu  sync.Mutex
	log *durable.Log
}

// Create starts a fresh artifact at path: the file is truncated and the
// header written (and synced) immediately, so even a run that dies in its
// first iteration leaves an identifiable artifact behind.
func Create(path string, hdr Header) (*Recorder, error) { return create(durable.OS{}, path, hdr) }

func create(fsys durable.FS, path string, hdr Header) (*Recorder, error) {
	log, err := durable.OpenLog(fsys, path, durable.Lines, true)
	if err != nil {
		return nil, fmt.Errorf("flightrec: create %s: %w", path, err)
	}
	hdr.Type = TypeHeader
	if err := log.AppendJSON(hdr); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("flightrec: create %s: %w", path, err)
	}
	return &Recorder{log: log}, nil
}

// Resume continues the artifact at path for a run resumed from a checkpoint
// whose last completed iteration is lastIter. The existing file is kept up
// to and including iteration lastIter — its header and the records of the
// iterations the checkpoint replays — and truncated beyond it: any summary
// (the run is continuing), any iteration past the checkpoint boundary (those
// iterations re-run), and any torn trailing line (the residue of a crash
// mid-append). The resumed run then appends from lastIter+1, producing an
// artifact record-identical to an uninterrupted run's.
//
// A missing or headerless file falls back to Create: the artifact then
// covers only the resumed portion (documented; there is nothing durable to
// stitch to).
func Resume(path string, hdr Header, lastIter int) (*Recorder, error) {
	return resume(durable.OS{}, path, hdr, lastIter)
}

func resume(fsys durable.FS, path string, hdr Header, lastIter int) (*Recorder, error) {
	first := true
	kept, _, err := durable.Recover(fsys, path, durable.Lines, func(line []byte) bool {
		var it Iteration
		if json.Unmarshal(line, &it) != nil {
			return false
		}
		if first {
			first = false
			return it.Type == TypeHeader
		}
		return it.Type == TypeIteration && it.Iter <= lastIter
	})
	if err != nil {
		return nil, fmt.Errorf("flightrec: resume %s: %w", path, err)
	}
	if kept == 0 {
		// No parseable header: start over rather than appending to garbage.
		return create(fsys, path, hdr)
	}
	log, err := durable.OpenLog(fsys, path, durable.Lines, false)
	if err != nil {
		return nil, fmt.Errorf("flightrec: resume %s: %w", path, err)
	}
	return &Recorder{log: log}, nil
}

// RecordIteration appends one iteration record (implements Sink) and makes
// it durable — the crash-tolerance contract: a record is on disk before the
// search moves past the boundary it describes. The first write failure
// disables the recorder (the log latches it and refuses later appends), so
// one bad disk does not fail every subsequent iteration; Err reports it.
func (r *Recorder) RecordIteration(it Iteration) {
	it.Type = TypeIteration
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.log.AppendJSON(it)
}

// Err returns the first write failure, if any.
func (r *Recorder) Err() error { return r.log.Err() }

// Finish writes the summary line and closes the recorder; it returns the
// first write failure of the whole recording, if there was one.
func (r *Recorder) Finish(s Summary) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Type = TypeSummary
	err := r.log.AppendJSON(s)
	if cerr := r.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the file without writing a summary (a killed or failed
// run). Idempotent.
func (r *Recorder) Close() error { return r.log.Close() }

// Load reads an artifact back into a RunData. It is tolerant of the residue
// of a crash — a torn trailing line is skipped — but a missing or malformed
// header is an error: the file is not a flight record. Skipped (malformed
// mid-file) lines are counted in the returned int.
func Load(path string) (*RunData, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("flightrec: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(f)
}

// Read parses an artifact stream; see Load.
func Read(rd io.Reader) (*RunData, int, error) {
	data := &RunData{}
	first := true
	skipped, err := durable.ReadLines(rd, func(line []byte) error {
		var probe struct {
			Type string `json:"type"`
		}
		err := json.Unmarshal(line, &probe)
		if first {
			if err != nil {
				return fmt.Errorf("malformed header line: %w", err)
			}
			if probe.Type != TypeHeader {
				return fmt.Errorf("artifact starts with %q record, want header", probe.Type)
			}
			if err := json.Unmarshal(line, &data.Header); err != nil {
				return fmt.Errorf("decode header: %w", err)
			}
			first = false
			return nil
		}
		var it Iteration
		var s Summary
		switch {
		case err != nil: // torn or corrupt line (crash residue)
			return durable.ErrSkip
		case probe.Type == TypeIteration && json.Unmarshal(line, &it) == nil:
			data.Iters = append(data.Iters, it)
		case probe.Type == TypeSummary && json.Unmarshal(line, &s) == nil:
			data.Summary = &s
		default: // a second header, an unknown type, an undecodable record
			return durable.ErrSkip
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("flightrec: read artifact: %w", err)
	}
	if first {
		return nil, 0, errors.New("flightrec: empty artifact")
	}
	return data, skipped, nil
}
