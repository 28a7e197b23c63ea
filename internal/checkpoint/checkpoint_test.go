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
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/workload"
)

func rec(iter int) core.IterationRecord {
	return core.IterationRecord{
		Iter:         iter,
		Candidates:   []core.Candidate{{X: []float64{float64(iter), 0.5}, Iter: iter}},
		Evals:        iter * 10,
		ClockSeconds: float64(iter) * 3.5,
		RNGPos:       uint64(iter) * 7,
	}
}

func mustCreate(t *testing.T, path string) *File {
	t.Helper()
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestJournalAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0, Evals: 0}); err != nil {
		t.Fatal(err)
	}
	want := []core.IterationRecord{rec(1), rec(2), rec(3)}
	for _, r := range want {
		if err := f.AppendIteration(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != 0 {
		t.Errorf("snapshot iter = %d, want 0", rs.Snapshot.Iter)
	}
	if !reflect.DeepEqual(rs.Tail, want) {
		t.Errorf("journal tail = %+v, want %+v", rs.Tail, want)
	}
	if rs.LastIter() != 3 {
		t.Errorf("LastIter = %d, want 3", rs.LastIter())
	}
}

func TestTornTrailingRecordTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := f.AppendIteration(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Tear the last frame mid-payload, as a crash mid-append would.
	jp := journalPath(path)
	fi, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tail) != 2 || rs.LastIter() != 2 {
		t.Fatalf("torn load kept %d records up to iter %d, want 2 up to 2",
			len(rs.Tail), rs.LastIter())
	}
	if rs.TornRecords != 1 {
		t.Errorf("torn load reports %d torn records, want 1", rs.TornRecords)
	}

	// The torn bytes are gone: a second load sees a clean journal and the
	// next append starts at a frame boundary.
	rs2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs2.Tail, rs.Tail) || rs2.TornRecords != 0 {
		t.Errorf("second load diverged: %+v vs %+v, %d torn records", rs2.Tail, rs.Tail, rs2.TornRecords)
	}
	f2 := mustCreate(t, path)
	if err := f2.AppendIteration(rec(3)); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	rs3, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.LastIter() != 3 {
		t.Errorf("append after truncation: LastIter = %d, want 3", rs3.LastIter())
	}
}

func TestGarbageTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendIteration(rec(1)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jf, err := os.OpenFile(journalPath(path), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tail) != 1 || rs.Tail[0].Iter != 1 {
		t.Fatalf("garbage tail corrupted the journal: %+v", rs.Tail)
	}
}

func TestSnapshotSubsumesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	f.AppendIteration(rec(1))
	f.AppendIteration(rec(2))
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 2, Evals: 20}); err != nil {
		t.Fatal(err)
	}
	// The snapshot reset the journal, so the journal stays bounded.
	if fi, err := os.Stat(journalPath(path)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not reset after snapshot: size %d, err %v", fi.Size(), err)
	}
	f.AppendIteration(rec(3))
	f.Close()

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != 2 || len(rs.Tail) != 1 || rs.Tail[0].Iter != 3 {
		t.Errorf("load = snapshot %d + %d tail records, want snapshot 2 + [3]",
			rs.Snapshot.Iter, len(rs.Tail))
	}
}

// TestLoadSkipsRecordsCoveredBySnapshot pins the crash window between
// snapshot rename and journal reset: the journal still holds records the
// snapshot covers, and resume must not replay them twice.
func TestLoadSkipsRecordsCoveredBySnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		f.AppendIteration(rec(i))
	}
	f.Close()
	// Simulate the crash: replace the snapshot as if iteration 2's cadence
	// snapshot had renamed into place, without the journal reset.
	snap, err := json.Marshal(core.SnapshotRecord{Iter: 2, Evals: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != 2 || len(rs.Tail) != 1 || rs.Tail[0].Iter != 3 {
		t.Errorf("covered records replayed: snapshot %d, tail %+v", rs.Snapshot.Iter, rs.Tail)
	}
}

func TestJournalGapRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := mustCreate(t, path)
	if err := f.WriteSnapshot(core.SnapshotRecord{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	f.AppendIteration(rec(1))
	f.AppendIteration(rec(3)) // gap: iteration 2 missing
	f.Close()
	if _, err := Load(path); err == nil {
		t.Fatal("journal gap not rejected")
	}
}

func TestLoadMissingCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	if Exists(path) {
		t.Fatal("Exists on a missing checkpoint")
	}
	if _, err := Load(path); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load(missing) = %v, want ErrNoCheckpoint", err)
	}
}

// --- end-to-end kill/resume, through real files ---

func spatialTestPlatform() core.Platform {
	return platform.NewSpatial(hw.Edge,
		[]workload.Workload{workload.MobileNetV3Small()}, mapsearch.FlexTensorLike)
}

func ascendTestPlatform() core.Platform {
	return platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
}

func sameResult(t *testing.T, want, got core.Result) {
	t.Helper()
	if want.Evals != got.Evals {
		t.Errorf("Evals = %d, want %d", got.Evals, want.Evals)
	}
	if want.Hours != got.Hours {
		t.Errorf("Hours = %v, want %v", got.Hours, want.Hours)
	}
	if !reflect.DeepEqual(want.All, got.All) {
		t.Errorf("All diverged: %d vs %d candidates", len(got.All), len(want.All))
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Errorf("Front diverged: %d vs %d candidates", len(got.Front), len(want.Front))
	}
	if !reflect.DeepEqual(want.Trace, got.Trace) {
		t.Errorf("Trace diverged: %d vs %d points", len(got.Trace), len(want.Trace))
	}
	if !reflect.DeepEqual(want.Fronts(), got.Fronts()) {
		t.Error("per-iteration fronts diverged")
	}
}

// killAndResume runs the keystone scenario on one platform: a reference run,
// an identical run killed after killAt iterations with a file checkpoint,
// and a resumed run from the loaded files, which must be bit-identical to
// the reference. checkpointEvery > killAt keeps the cadence snapshot from
// firing, so resume exercises the journal-replay path through real JSON.
func killAndResume(t *testing.T, newP func() core.Platform, opt core.Options, killAt, checkpointEvery int) {
	t.Helper()
	ref := core.RunContext(context.Background(), newP(), opt)
	if len(ref.All) != opt.MaxIter*opt.BatchSize {
		t.Fatalf("reference run evaluated %d candidates, want %d",
			len(ref.All), opt.MaxIter*opt.BatchSize)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	sink := mustCreate(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopt := opt
	iopt.Checkpoint = sink
	iopt.CheckpointEvery = checkpointEvery
	iopt.Progress = func(p core.Progress) {
		if p.Iter == killAt {
			cancel()
		}
	}
	partial := core.RunContext(ctx, newP(), iopt)
	sink.Close()
	if partial.CheckpointErr != nil {
		t.Fatalf("interrupted run CheckpointErr = %v", partial.CheckpointErr)
	}
	if len(partial.All) != killAt*opt.BatchSize {
		t.Fatalf("interrupted run kept %d candidates, want %d",
			len(partial.All), killAt*opt.BatchSize)
	}

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LastIter() != killAt {
		t.Fatalf("checkpoint covers iteration %d, want %d", rs.LastIter(), killAt)
	}
	sink2 := mustCreate(t, path)
	ropt := opt
	ropt.Checkpoint = sink2
	ropt.CheckpointEvery = checkpointEvery
	ropt.Resume = rs
	got := core.RunContext(context.Background(), newP(), ropt)
	sink2.Close()
	if got.CheckpointErr != nil {
		t.Fatalf("resumed run CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)
}

func TestKillResumeBitIdenticalSpatial(t *testing.T) {
	opt := core.UNICOOptions(6, 4, 20, 17)
	opt.Workers = 4
	killAndResume(t, spatialTestPlatform, opt, 2, 2)
}

func TestKillResumeBitIdenticalSpatialNoCadenceSnapshot(t *testing.T) {
	opt := core.UNICOOptions(6, 4, 20, 29)
	opt.Workers = 4
	// Cadence 10 > MaxIter: no cadence snapshot fires, so the graceful-exit
	// final snapshot alone carries the state across the restart.
	killAndResume(t, spatialTestPlatform, opt, 3, 10)
}

func TestKillResumeBitIdenticalAscend(t *testing.T) {
	opt := core.UNICOOptions(4, 3, 12, 23)
	opt.Workers = 2
	killAndResume(t, ascendTestPlatform, opt, 1, 10)
}

// dropSnapshotsSink forwards the journal stream but lets only the first
// (genesis) snapshot through — simulating a process that crashed before any
// cadence snapshot landed, leaving genesis + journal on disk.
type dropSnapshotsSink struct {
	f     *File
	wrote bool
}

func (s *dropSnapshotsSink) AppendIteration(rec core.IterationRecord) error {
	return s.f.AppendIteration(rec)
}

func (s *dropSnapshotsSink) WriteSnapshot(snap core.SnapshotRecord) error {
	if s.wrote {
		return nil
	}
	s.wrote = true
	return s.f.WriteSnapshot(snap)
}

// TestResumeFromTornJournalBitIdentical is the full crash story: the run
// dies with only genesis + journal durable, the journal's last record is
// torn mid-frame, and resume must replay the intact prefix and re-run the
// lost iteration to a bit-identical final result.
func TestResumeFromTornJournalBitIdentical(t *testing.T) {
	opt := core.UNICOOptions(6, 3, 20, 31)
	opt.Workers = 4
	ref := core.RunContext(context.Background(), spatialTestPlatform(), opt)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	inner := mustCreate(t, path)
	iopt := opt
	iopt.Checkpoint = &dropSnapshotsSink{f: inner}
	crashed := core.RunContext(context.Background(), spatialTestPlatform(), iopt)
	inner.Close()
	if crashed.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", crashed.CheckpointErr)
	}

	// Tear the last journal frame: iteration 3's record loses its tail.
	jp := journalPath(path)
	fi, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	rs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != 0 || rs.LastIter() != 2 {
		t.Fatalf("post-crash state: snapshot %d, last iter %d; want genesis + 2 journal records",
			rs.Snapshot.Iter, rs.LastIter())
	}

	sink2 := mustCreate(t, path)
	ropt := opt
	ropt.Checkpoint = sink2
	ropt.Resume = rs
	got := core.RunContext(context.Background(), spatialTestPlatform(), ropt)
	sink2.Close()
	if got.CheckpointErr != nil {
		t.Fatalf("resumed run CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)
}

// TestParentCheckpointResumes resumes the checkpoint a killed run of an
// older commit left in testdata/parent. That commit's records also stored
// each candidate's mapping-search history, each iteration's suggested
// points and observations, and the explorer's observation history, which
// resume now ignores or derives. The resumed run must still finish exactly
// as an uninterrupted run of this code does. Its snapshot also stored the
// front after each iteration, which the resumed run now derives: the derived
// fronts must be the stored ones.
func TestParentCheckpointResumes(t *testing.T) {
	src := filepath.Join("testdata", "parent")
	dir := t.TempDir()
	for name, field := range map[string]string{"parent.ckpt": `"History"`, "parent.ckpt.journal": `"observations"`} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(field)) {
			t.Fatalf("%s holds no %s: it is not the older format", name, field)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := Load(filepath.Join(dir, "parent.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != 3 || rs.LastIter() != 5 {
		t.Fatalf("snapshot %d, last iteration %d; want the snapshot of 3 and the journal of 4 and 5", rs.Snapshot.Iter, rs.LastIter())
	}

	newP := func() core.Platform {
		return platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	}
	opt := core.UNICOOptions(4, 6, 10, 3)
	ref := core.RunContext(context.Background(), newP(), opt)
	ropt := opt
	ropt.Resume = rs
	got := core.RunContext(context.Background(), newP(), ropt)
	if got.CheckpointErr != nil {
		t.Fatalf("resumed run CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)

	raw, err := os.ReadFile(filepath.Join(src, "parent.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Trace []struct {
			Iter     int
			FrontPPA [][]float64
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatal(err)
	}
	if len(stored.Trace) != 3 {
		t.Fatalf("parent snapshot stores %d trace points, want 3", len(stored.Trace))
	}
	fronts := got.Fronts()
	for k, tp := range stored.Trace {
		if len(tp.FrontPPA) == 0 {
			t.Fatalf("parent trace point %d stores no front", tp.Iter)
		}
		ppa := make([][]float64, len(fronts[k]))
		for i, c := range fronts[k] {
			ppa[i] = c.Objectives(false)
		}
		if got.Trace[k].Iter != tp.Iter || !reflect.DeepEqual(ppa, tp.FrontPPA) {
			t.Errorf("iteration %d: derived front %v, parent stored %v", tp.Iter, ppa, tp.FrontPPA)
		}
	}
}
