// Package checkpoint persists a co-search run's state so a crashed or
// killed process can resume bit-identically (internal/core defines the
// record types and the resume semantics; internal/durable owns the bytes).
//
// Two files per checkpoint path P:
//
//   - P is the snapshot: one JSON SnapshotRecord, replaced atomically
//     (durable.WriteFile) so a crash mid-write leaves the previous snapshot
//     intact.
//   - P.journal is the write-ahead journal: a durable.Log in CRC framing
//     with one JSON IterationRecord per completed iteration, appended and
//     fsynced before the co-search proceeds. A crash mid-append leaves at
//     most one torn trailing frame, which Load truncates away (and reports
//     in ResumeState.TornRecords).
//
// A successful snapshot resets the journal, so the journal only ever holds
// the iterations since the last snapshot; the snapshot grows with the run.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"unico/internal/core"
	"unico/internal/durable"
)

// ErrNoCheckpoint reports that the checkpoint path has no snapshot to
// resume from.
var ErrNoCheckpoint = errors.New("checkpoint: no snapshot found")

// File is the file-backed core.CheckpointSink. Safe for use by one run at a
// time; methods are serialized internally.
type File struct {
	mu       sync.Mutex
	fs       durable.FS
	snapPath string
	journal  *durable.Log
}

// Create opens (or continues) the checkpoint at path. An existing journal
// is appended to — the resume path loads and truncates it first — and an
// existing snapshot is kept until the next WriteSnapshot replaces it.
func Create(path string) (*File, error) { return create(durable.OS{}, path) }

func create(fsys durable.FS, path string) (*File, error) {
	j, err := durable.OpenLog(fsys, journalPath(path), durable.CRC, false)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open journal: %w", err)
	}
	return &File{fs: fsys, snapPath: path, journal: j}, nil
}

func journalPath(path string) string { return path + ".journal" }

// AppendIteration journals one completed iteration. The record is durable
// when this returns nil.
func (f *File) AppendIteration(rec core.IterationRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.journal.AppendJSON(rec); err != nil {
		return fmt.Errorf("checkpoint: append iteration %d: %w", rec.Iter, err)
	}
	return nil
}

// WriteSnapshot atomically replaces the snapshot, then resets the journal:
// the snapshot now subsumes every journaled iteration. If the process dies
// between the two steps, Load ignores the journal records the snapshot
// already covers.
func (f *File) WriteSnapshot(snap core.SnapshotRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	err = durable.WriteFile(f.fs, f.snapPath, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := f.journal.Reset(); err != nil {
		return fmt.Errorf("checkpoint: reset journal: %w", err)
	}
	return nil
}

// Close releases the journal handle. The sink is unusable afterwards.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.journal.Close()
}

// Exists reports whether a snapshot exists at path (i.e. Load can resume).
func Exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Load reads the checkpoint at path into a core.ResumeState: the snapshot
// plus the contiguous journal records after it. A torn trailing journal
// frame — the expected residue of a crash mid-append — is truncated off the
// file and counted in the state's TornRecords; the state resumes from the
// last durable record. Returns ErrNoCheckpoint when no snapshot exists.
func Load(path string) (*core.ResumeState, error) { return load(durable.OS{}, path) }

func load(fsys durable.FS, path string) (*core.ResumeState, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w at %s", ErrNoCheckpoint, path)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read snapshot: %w", err)
	}
	var snap core.SnapshotRecord
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("checkpoint: decode snapshot: %w", err)
	}

	// A frame whose checksum holds but whose JSON does not decode is treated
	// like a torn one: it and everything after it is dropped.
	var recs []core.IterationRecord
	_, dropped, err := durable.Recover(fsys, journalPath(path), durable.CRC, func(payload []byte) bool {
		var rec core.IterationRecord
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load journal: %w", err)
	}
	// Keep only the contiguous run of records continuing the snapshot; a
	// crash between snapshot-rename and journal-reset leaves records the
	// snapshot already covers, which resume must not replay twice.
	rs := &core.ResumeState{Snapshot: snap}
	if dropped > 0 {
		rs.TornRecords = 1
	}
	next := snap.Iter + 1
	for _, rec := range recs {
		if rec.Iter < next {
			continue
		}
		if rec.Iter != next {
			return nil, fmt.Errorf("checkpoint: journal gap: have iteration %d, want %d", rec.Iter, next)
		}
		rs.Tail = append(rs.Tail, rec)
		next++
	}
	return rs, nil
}
