package checkpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unico/internal/core"
	"unico/internal/durable/faultfs"
)

// ackSink records which iterations the file sink acknowledged as durable.
type ackSink struct {
	f        *File
	lastIter int // highest iteration an append or snapshot acknowledged
}

func (s *ackSink) AppendIteration(rec core.IterationRecord) error {
	err := s.f.AppendIteration(rec)
	if err == nil {
		s.lastIter = rec.Iter
	}
	return err
}

func (s *ackSink) WriteSnapshot(snap core.SnapshotRecord) error {
	err := s.f.WriteSnapshot(snap)
	if err == nil && snap.Iter > s.lastIter {
		s.lastIter = snap.Iter
	}
	return err
}

// TestFaultMatrixThroughCoSearch breaks the checkpoint at every filesystem
// operation of a whole co-search. Whatever fails, the search itself is
// untouched and reports the failure in Result.CheckpointErr (a failed
// directory fsync alone stays silent), every iteration the sink acknowledged
// is recoverable, and resuming from what is on disk finishes bit-identical
// to an uninterrupted run.
func TestFaultMatrixThroughCoSearch(t *testing.T) {
	opt := core.UNICOOptions(3, 3, 8, 31)
	opt.Workers = 2
	opt.CheckpointEvery = 2
	ref := core.RunContext(context.Background(), spatialTestPlatform(), opt)

	faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		f, err := create(fsys, path)
		if err != nil {
			return // surfaced: the caller never gets a sink
		}
		sink := &ackSink{f: f}
		iopt := opt
		iopt.Checkpoint = sink
		got := core.RunContext(context.Background(), spatialTestPlatform(), iopt)
		cerr := f.Close()
		sameResult(t, ref, got)

		surfaced := got.CheckpointErr != nil || cerr != nil
		if want := fault != "" && fault != faultfs.SyncDir; surfaced != want {
			t.Errorf("fault %q: CheckpointErr = %v, Close = %v; want surfaced = %v", fault, got.CheckpointErr, cerr, want)
		}

		rs, err := Load(path)
		if errors.Is(err, ErrNoCheckpoint) && sink.lastIter == 0 {
			return // the genesis snapshot never landed and nothing was acknowledged
		}
		if err != nil {
			t.Fatal(err)
		}
		if rs.LastIter() < sink.lastIter {
			t.Fatalf("acknowledged up to iteration %d, recovered up to %d", sink.lastIter, rs.LastIter())
		}
		f2 := mustCreate(t, path)
		ropt := opt
		ropt.Checkpoint = f2
		ropt.Resume = rs
		resumed := core.RunContext(context.Background(), spatialTestPlatform(), ropt)
		f2.Close()
		if resumed.CheckpointErr != nil {
			t.Fatalf("resumed run CheckpointErr = %v", resumed.CheckpointErr)
		}
		sameResult(t, ref, resumed)
	})
}

// TestLoadFaults: a torn tail whose truncation (or the fsync of it) fails
// is an error, not a silently shorter journal; once the fault is gone the
// same files load.
func TestLoadFaults(t *testing.T) {
	faultfs.Matrix(t, func(t *testing.T, fsys *faultfs.FS, fault faultfs.Op) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		f := mustCreate(t, path)
		if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if err := f.AppendIteration(rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		jf, _ := os.OpenFile(journalPath(path), os.O_WRONLY|os.O_APPEND, 0)
		jf.Write([]byte{9, 0, 0, 0, 1, 2})
		jf.Close()

		rs, err := load(fsys, path)
		if (err != nil) != (fault != "") {
			t.Fatalf("fault %q: load = %v", fault, err)
		}
		if err != nil {
			if rs, err = Load(path); err != nil {
				t.Fatal(err)
			}
		}
		if want := []core.IterationRecord{rec(1), rec(2)}; !reflect.DeepEqual(rs.Tail, want) {
			t.Errorf("tail = %+v, want %+v", rs.Tail, want)
		}
	})
}

// TestOpSequence pins the syscalls behind each sink call.
func TestOpSequence(t *testing.T) {
	fsys := faultfs.New()
	f, err := create(fsys, filepath.Join(t.TempDir(), "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fsys.Reset()
	if err := f.AppendIteration(rec(1)); err != nil {
		t.Fatal(err)
	}
	if got, want := fsys.Ops(), []faultfs.Op{faultfs.Write, faultfs.Sync}; !reflect.DeepEqual(got, want) {
		t.Errorf("AppendIteration = %v, want %v", got, want)
	}
	fsys.Reset()
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	want := []faultfs.Op{
		faultfs.CreateTemp, faultfs.Write, faultfs.Sync, faultfs.Close, faultfs.Rename, faultfs.SyncDir, // snapshot
		faultfs.Close, faultfs.Open, // journal reset
	}
	if got := fsys.Ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("WriteSnapshot = %v, want %v", got, want)
	}
}

// FuzzLoad feeds arbitrary bytes to both files of a checkpoint. Load must
// not panic; when it succeeds the tail is a contiguous run continuing the
// snapshot, every record of it is one whole journal frame, and a second
// Load (after any truncation) agrees with the first.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	sink, _ := Create(path)
	sink.WriteSnapshot(core.SnapshotRecord{Iter: 1})
	sink.AppendIteration(rec(2))
	sink.AppendIteration(rec(3))
	sink.Close()
	snap, _ := os.ReadFile(path)
	journal, _ := os.ReadFile(journalPath(path))
	f.Add(snap, journal)
	f.Add(snap, journal[:len(journal)-6])
	f.Add(snap, append(bytes.Clone(journal), journal[:40]...))
	f.Add(snap[:len(snap)-2], journal)
	f.Add([]byte(`{"iter":0}`), []byte{2, 0, 0, 0, 0, 0, 0, 0, '{', '}'})
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(path), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Load(path)
		if err != nil {
			return
		}
		kept, err := os.ReadFile(journalPath(path))
		if err != nil || !bytes.HasPrefix(journal, kept) {
			t.Fatalf("journal after Load is not a prefix of the input (%v)", err)
		}
		for i, r := range rs.Tail {
			if r.Iter != rs.Snapshot.Iter+1+i {
				t.Fatalf("tail not contiguous after snapshot %d: %+v", rs.Snapshot.Iter, rs.Tail)
			}
			payload, _ := json.Marshal(r)
			var back core.IterationRecord
			if json.Unmarshal(payload, &back) != nil || !reflect.DeepEqual(back, r) {
				t.Fatalf("tail record %d does not round-trip: %+v", i, r)
			}
		}
		rs2, err := Load(path)
		if err != nil || !reflect.DeepEqual(rs2.Tail, rs.Tail) {
			t.Fatalf("second Load diverged: %v", err)
		}
	})
}

// fuzzResumeCap keeps FuzzResume cheap: a checkpoint holding more candidates
// than this (replay refits the surrogates once per iteration), or recording
// an RNG position further than 2^20 draws out, is skipped, not resumed.
const fuzzResumeCap = 16

// FuzzResume feeds arbitrary bytes to both files of a checkpoint and resumes
// whatever Load accepts with MaxIter = LastIter(), so the run replays the
// checkpoint and searches no further. The resume must return an error or a
// result, never panic, and a result holds every checkpointed candidate.
func FuzzResume(f *testing.F) {
	p := spatialTestPlatform()
	opt := core.UNICOOptions(3, 3, 6, 5)
	opt.Workers = 1
	dir := f.TempDir()
	// files returns the snapshot and journal bytes a run of opt through sink
	// (wrapping a fresh file sink) leaves behind.
	files := func(name string, wrap func(*File) core.CheckpointSink) ([]byte, []byte) {
		path := filepath.Join(dir, name)
		inner, err := Create(path)
		if err != nil {
			f.Fatal(err)
		}
		sopt := opt
		sopt.Checkpoint = wrap(inner)
		sopt.CheckpointEvery = 2
		if res := core.RunContext(context.Background(), p, sopt); res.CheckpointErr != nil {
			f.Fatal(res.CheckpointErr)
		}
		inner.Close()
		snap, _ := os.ReadFile(path)
		journal, _ := os.ReadFile(journalPath(path))
		return snap, journal
	}
	genesis, journal := files("genesis.ckpt", func(f *File) core.CheckpointSink { return &dropSnapshotsSink{f: f} })
	final, _ := files("final.ckpt", func(f *File) core.CheckpointSink { return f })
	// A journal frame whose checksum holds around a point of 1 coordinate.
	bad := filepath.Join(dir, "bad.ckpt")
	sink, err := Create(bad)
	if err != nil {
		f.Fatal(err)
	}
	sink.AppendIteration(core.IterationRecord{Iter: 1, Candidates: []core.Candidate{{X: []float64{0.5}, Iter: 1}}})
	sink.Close()
	short, _ := os.ReadFile(journalPath(bad))
	f.Add(genesis, journal)
	f.Add(final, []byte(nil))
	f.Add(genesis, journal[:len(journal)-4])
	f.Add(genesis, short)
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(path), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Load(path)
		if err != nil || rs.LastIter() < 1 {
			return // MaxIter 0 would mean the default run length
		}
		n, far := len(rs.Snapshot.All), rs.Snapshot.Explorer.RNGPos > 1<<20
		for _, rec := range rs.Tail {
			n, far = n+len(rec.Candidates), far || rec.RNGPos > 1<<20
		}
		if n > fuzzResumeCap || far {
			t.Skip()
		}
		ropt := opt
		ropt.MaxIter = rs.LastIter()
		ropt.Resume = rs
		res := core.RunContext(context.Background(), p, ropt)
		if res.CheckpointErr == nil && len(res.All) != n {
			t.Fatalf("resumed %d candidates of the checkpoint's %d", len(res.All), n)
		}
	})
}
