package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/robust"
	"unico/internal/workload"
)

// memSink is the in-memory CheckpointSink used to test the checkpoint
// semantics without filesystem involvement (internal/checkpoint tests the
// file-backed implementation against the same contract).
type memSink struct {
	recs      []IterationRecord
	snaps     []SnapshotRecord
	appendErr error
	snapErr   error
}

func (s *memSink) AppendIteration(rec IterationRecord) error {
	if s.appendErr != nil {
		return s.appendErr
	}
	s.recs = append(s.recs, rec)
	return nil
}

func (s *memSink) WriteSnapshot(snap SnapshotRecord) error {
	if s.snapErr != nil {
		return s.snapErr
	}
	s.snaps = append(s.snaps, snap)
	return nil
}

// resumeState mirrors what checkpoint.Load reconstructs from disk: the
// newest snapshot plus the journal records past it.
func (s *memSink) resumeState() *ResumeState {
	rs := &ResumeState{Snapshot: s.snaps[len(s.snaps)-1]}
	for _, rec := range s.recs {
		if rec.Iter > rs.Snapshot.Iter {
			rs.Tail = append(rs.Tail, rec)
		}
	}
	return rs
}

// sameResult asserts two runs produced bit-identical results (the keystone
// guarantee: checkpointing and resuming never perturb the search).
func sameResult(t *testing.T, want, got Result) {
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
}

func TestCheckpointSinkDoesNotPerturbSearch(t *testing.T) {
	opt := smallOpts(3)
	ref := RunContext(context.Background(), testPlatform(), opt)

	ms := &memSink{}
	copt := opt
	copt.Checkpoint = ms
	copt.CheckpointEvery = 2
	got := RunContext(context.Background(), testPlatform(), copt)
	if got.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)

	if len(ms.recs) != opt.MaxIter {
		t.Fatalf("journaled %d iterations, want %d", len(ms.recs), opt.MaxIter)
	}
	// Genesis, the cadence snapshot at iteration 2, and the final snapshot.
	if len(ms.snaps) != 3 {
		t.Fatalf("wrote %d snapshots, want 3", len(ms.snaps))
	}
	if ms.snaps[0].Iter != 0 || ms.snaps[1].Iter != 2 || ms.snaps[2].Iter != opt.MaxIter {
		t.Errorf("snapshot iterations = %d,%d,%d, want 0,2,%d",
			ms.snaps[0].Iter, ms.snaps[1].Iter, ms.snaps[2].Iter, opt.MaxIter)
	}
	if ms.recs[0].Evals <= 0 || ms.recs[len(ms.recs)-1].Evals != got.Evals {
		t.Errorf("journal eval accounting wrong: first %d, last %d, want cumulative up to %d",
			ms.recs[0].Evals, ms.recs[len(ms.recs)-1].Evals, got.Evals)
	}
}

// TestResumeFromSnapshotBitIdentical is the keystone: cancel after iteration
// k, resume from the final snapshot, and the completed run must be
// bit-identical to an uninterrupted run of the same seed.
func TestResumeFromSnapshotBitIdentical(t *testing.T) {
	opt := smallOpts(5)
	opt.MaxIter = 4
	ref := RunContext(context.Background(), testPlatform(), opt)

	ms := &memSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopt := opt
	iopt.Checkpoint = ms
	iopt.CheckpointEvery = 2
	iopt.Progress = func(p Progress) {
		if p.Iter == 2 {
			cancel()
		}
	}
	partial := RunContext(ctx, testPlatform(), iopt)
	if partial.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", partial.CheckpointErr)
	}
	if len(partial.All) != 2*opt.BatchSize {
		t.Fatalf("interrupted run kept %d candidates, want %d (2 completed iterations)",
			len(partial.All), 2*opt.BatchSize)
	}

	rs := ms.resumeState()
	if rs.LastIter() != 2 {
		t.Fatalf("resume state covers iteration %d, want 2", rs.LastIter())
	}
	ropt := opt
	ropt.Resume = rs
	got := RunContext(context.Background(), testPlatform(), ropt)
	if got.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)
}

// TestResumeReplaysJournalTail resumes from the genesis snapshot with every
// completed iteration only in the journal — the post-crash shape when the
// process died before any cadence snapshot landed.
func TestResumeReplaysJournalTail(t *testing.T) {
	opt := smallOpts(5)
	opt.MaxIter = 4

	ref := RunContext(context.Background(), testPlatform(), opt)

	ms := &memSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopt := opt
	iopt.Checkpoint = ms
	iopt.Progress = func(p Progress) {
		if p.Iter == 2 {
			cancel()
		}
	}
	RunContext(ctx, testPlatform(), iopt)

	rs := &ResumeState{Snapshot: ms.snaps[0], Tail: ms.recs}
	if rs.Snapshot.Iter != 0 || len(rs.Tail) != 2 {
		t.Fatalf("unexpected crash shape: snapshot iter %d, %d journal records",
			rs.Snapshot.Iter, len(rs.Tail))
	}
	ropt := opt
	ropt.Resume = rs
	got := RunContext(context.Background(), testPlatform(), ropt)
	if got.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)
}

// cancelOnJobPlatform cancels a context when its NewJob call counter reaches
// a threshold — an abort arriving while a batch is being dispatched.
type cancelOnJobPlatform struct {
	Platform
	cancel context.CancelFunc
	after  int32
	calls  int32
}

func (p *cancelOnJobPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	if atomic.AddInt32(&p.calls, 1) == p.after {
		p.cancel()
	}
	return p.Platform.NewJob(x, seed)
}

// TestCancelMidIterationDiscardsPartialBatch pins the harder cancellation
// window: the explorer has already drawn iteration k+1's suggestions when
// the abort lands, so the discarded batch's RNG draws must not leak into the
// final snapshot.
func TestCancelMidIterationDiscardsPartialBatch(t *testing.T) {
	opt := smallOpts(8)
	opt.MaxIter = 4
	ref := RunContext(context.Background(), testPlatform(), opt)

	ms := &memSink{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := &cancelOnJobPlatform{
		Platform: testPlatform(),
		cancel:   cancel,
		after:    int32(2*opt.BatchSize + 1), // first job of iteration 3
	}
	iopt := opt
	iopt.Checkpoint = ms
	partial := RunContext(ctx, cp, iopt)
	if partial.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", partial.CheckpointErr)
	}
	if len(partial.All) != 2*opt.BatchSize {
		t.Fatalf("partial batch leaked: %d candidates, want %d", len(partial.All), 2*opt.BatchSize)
	}

	final := ms.snaps[len(ms.snaps)-1]
	if final.Iter != 2 {
		t.Fatalf("final snapshot at iteration %d, want 2", final.Iter)
	}
	if final.Explorer.RNGPos != ms.recs[1].RNGPos {
		t.Fatalf("final snapshot RNG position %d leaked the discarded batch's draws (iteration-2 boundary is %d)",
			final.Explorer.RNGPos, ms.recs[1].RNGPos)
	}
	if final.ClockSeconds != ms.recs[1].ClockSeconds {
		t.Fatalf("final snapshot clock %v, want the iteration-2 boundary %v",
			final.ClockSeconds, ms.recs[1].ClockSeconds)
	}

	// Resume on the same wrapper platform type (the fingerprint includes the
	// platform's concrete type), with a threshold that never fires.
	ropt := opt
	ropt.Resume = ms.resumeState()
	got := RunContext(context.Background(), &cancelOnJobPlatform{Platform: testPlatform(), cancel: func() {}, after: -1}, ropt)
	if got.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", got.CheckpointErr)
	}
	sameResult(t, ref, got)
}

// waitForCancelPlatform hands out, from NewJob call number `from` on,
// searchers whose cancellable advance cancels the run and then waits for the
// cancellation to arrive — an abort landing while a batch is searching. Their
// plain Advance is the wrapped searcher's, which no context can stop.
type waitForCancelPlatform struct {
	Platform
	cancel context.CancelFunc
	from   int32
	calls  int32
}

func (p *waitForCancelPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	job := p.Platform.NewJob(x, seed)
	if atomic.AddInt32(&p.calls, 1) < p.from {
		return job
	}
	return &waitForCancel{Searcher: job, cancel: p.cancel}
}

type waitForCancel struct {
	mapsearch.Searcher
	cancel context.CancelFunc
}

func (j *waitForCancel) AdvanceContext(ctx context.Context, budget int) {
	j.cancel()
	<-ctx.Done()
}

// TestCancelMidIterationWithoutSHDiscardsPartialBatch: the no-early-stopping
// regime advances its batch the way a rung does — on the pool, through the
// cancellable advance — so a cancellation mid-search ends the run at once
// with the batch discarded, instead of after the whole batch has run to
// b_max behind a context-less Advance.
func TestCancelMidIterationWithoutSHDiscardsPartialBatch(t *testing.T) {
	opt := smallOpts(8)
	opt.DisableSH = true
	ms := &memSink{}
	opt.Checkpoint = ms
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := &waitForCancelPlatform{
		Platform: testPlatform(),
		cancel:   cancel,
		from:     int32(opt.BatchSize + 1), // iteration 2's jobs
	}
	partial := RunContext(ctx, cp, opt)
	if ctx.Err() == nil {
		t.Fatal("the batch was not advanced through the cancellable path: nothing cancelled the run")
	}
	if len(partial.All) != opt.BatchSize || partial.Evals != opt.BatchSize*opt.BMax {
		t.Fatalf("partial batch leaked: %d candidates, %d evals; want iteration 1's %d and %d",
			len(partial.All), partial.Evals, opt.BatchSize, opt.BatchSize*opt.BMax)
	}
	if final := ms.snaps[len(ms.snaps)-1]; final.Iter != 1 || final.ClockSeconds != ms.recs[0].ClockSeconds {
		t.Fatalf("final snapshot at iteration %d, clock %v; want the iteration-1 boundary (clock %v)",
			final.Iter, final.ClockSeconds, ms.recs[0].ClockSeconds)
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	opt := smallOpts(5)
	ms := &memSink{}
	copt := opt
	copt.Checkpoint = ms
	RunContext(context.Background(), testPlatform(), copt)

	other := smallOpts(6) // different seed: a different trajectory entirely
	other.Resume = ms.resumeState()
	res := RunContext(context.Background(), testPlatform(), other)
	if !errors.Is(res.CheckpointErr, ErrResumeMismatch) {
		t.Fatalf("CheckpointErr = %v, want ErrResumeMismatch", res.CheckpointErr)
	}
	if len(res.All) != 0 || len(res.Front) != 0 {
		t.Errorf("mismatched resume still produced candidates: %v", res)
	}
}

// TestFingerprintBytes pins the JSON bytes of the paper's UNICO fingerprint
// on a spatial Edge/MobileNet platform and on the Ascend-like one. They were
// captured when the robustness percentile was still an Options field, so a
// checkpoint written then resumes now: a resume compares fingerprints by
// value, and these are the values it reads back.
//
// It was shown to catch Fingerprint.Alpha filled with 0 instead of
// robust.DefaultAlpha.
func TestFingerprintBytes(t *testing.T) {
	mobileNet := []workload.Workload{workload.MobileNet()}
	for _, tc := range []struct {
		p    Platform
		want string
	}{
		{platform.NewSpatial(hw.Edge, mobileNet, mapsearch.FlexTensorLike),
			`{"platform":"*platform.Spatial","space_dim":6,"seed":1,"batch_size":30,"b_max":300,"msh_promote_frac":0.15,"disable_sh":false,"use_robustness":true,"update_rule":0,"workers":8,"alpha":0.1}`},
		{platform.NewAscend(mobileNet, mapsearch.DepthFirst),
			`{"platform":"*platform.Ascend","space_dim":13,"seed":1,"batch_size":30,"b_max":300,"msh_promote_frac":0.15,"disable_sh":false,"use_robustness":true,"update_rule":0,"workers":8,"alpha":0.1}`},
	} {
		got, err := json.Marshal(FingerprintFor(tc.p, UNICOOptions(30, 10, 300, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("fingerprint\n got %s\nwant %s", got, tc.want)
		}
	}
}

// TestCheckpointWriteFailureLatchesAndContinues: one bad disk write must not
// kill the search — the error latches, the sink is disabled, and the result
// is bit-identical to an uncheckpointed run.
func TestCheckpointWriteFailureLatchesAndContinues(t *testing.T) {
	opt := smallOpts(4)
	ref := RunContext(context.Background(), testPlatform(), opt)

	ms := &memSink{appendErr: errors.New("disk full")}
	copt := opt
	copt.Checkpoint = ms
	got := RunContext(context.Background(), testPlatform(), copt)
	if got.CheckpointErr == nil {
		t.Fatal("append failure was not latched in CheckpointErr")
	}
	got.CheckpointErr = nil
	sameResult(t, ref, got)
	if len(ms.recs) != 0 {
		t.Errorf("failed sink still accumulated %d records", len(ms.recs))
	}
	// Only the genesis snapshot landed before the first append disabled the
	// sink.
	if len(ms.snaps) != 1 {
		t.Errorf("disabled sink still received %d snapshots, want 1 (genesis)", len(ms.snaps))
	}
}

// infeasiblePlatform yields jobs that never find a feasible mapping,
// exercising the penalty path of Algorithm 1.
type infeasiblePlatform struct{ Platform }

func (p infeasiblePlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	return stuckSearcher{}
}

func TestInfeasibleCandidatesTakePenaltyPath(t *testing.T) {
	opt := smallOpts(9)
	opt.MaxIter = 2
	ms := &memSink{}
	opt.Checkpoint = ms
	res := RunContext(context.Background(), infeasiblePlatform{testPlatform()}, opt)
	if res.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", res.CheckpointErr)
	}
	if len(res.All) != 2*opt.BatchSize {
		t.Fatalf("evaluated %d candidates, want %d", len(res.All), 2*opt.BatchSize)
	}
	for i, c := range res.All {
		if c.Feasible {
			t.Fatalf("candidate %d marked feasible with no feasible mapping", i)
		}
		if c.Metrics != penaltyMetrics {
			t.Errorf("candidate %d metrics = %+v, want the penalty sentinel", i, c.Metrics)
		}
		if c.Sensitivity != robust.RInfeasible {
			t.Errorf("candidate %d sensitivity = %v, want RInfeasible", i, c.Sensitivity)
		}
	}
	if len(res.Front) != 0 {
		t.Errorf("infeasible-only run produced a front of %d", len(res.Front))
	}
	if res.Evals != 0 {
		t.Errorf("stuck jobs charged %d evaluations, want 0", res.Evals)
	}
	// Penalty candidates flow into the journal like any others.
	if len(ms.recs) != 2 || ms.recs[0].Candidates[0].Metrics != penaltyMetrics {
		t.Errorf("journal did not carry the penalty candidates")
	}
}

func TestCanceledContextYieldsEmptyResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms := &memSink{}
	opt := smallOpts(2)
	opt.Checkpoint = ms
	res := RunContext(ctx, testPlatform(), opt)
	if len(res.All) != 0 || res.Evals != 0 || res.Hours != 0 {
		t.Fatalf("pre-canceled run still did work: %v", res)
	}
	// Genesis and final snapshot both pin iteration 0, so a later -resume
	// starts from scratch deterministically.
	if len(ms.snaps) != 2 || ms.snaps[0].Iter != 0 || ms.snaps[1].Iter != 0 {
		t.Errorf("snapshots = %+v, want two iteration-0 snapshots", len(ms.snaps))
	}
}

// jsonKeys returns the sorted top-level keys of v's JSON object.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRecordShape pins the keys a real two-iteration run writes into its
// journal and snapshot. Each record holds every fact once: candidates carry
// no mapping-search history, and neither the journal nor the explorer state
// stores the points or observations the candidates already determine. A
// field added back to a record has to change this test.
func TestRecordShape(t *testing.T) {
	opt := smallOpts(5)
	opt.MaxIter = 2
	ms := &memSink{}
	opt.Checkpoint = ms
	if res := RunContext(context.Background(), testPlatform(), opt); res.CheckpointErr != nil {
		t.Fatalf("CheckpointErr = %v", res.CheckpointErr)
	}
	snap := ms.snaps[len(ms.snaps)-1]
	for _, tc := range []struct {
		name string
		v    any
		want []string
	}{
		{"IterationRecord", ms.recs[1], []string{"candidates", "clock_seconds", "evals", "iter", "rng_pos"}},
		{"SnapshotRecord", snap, []string{"all", "clock_seconds", "evals", "explorer", "fingerprint", "iter", "trace"}},
		{"explorer", snap.Explorer, []string{"d_set", "rng_pos", "seed", "since_refit", "surrogates", "train", "uul", "v_best"}},
		{"Candidate", snap.All[0], []string{"Feasible", "Iter", "Metrics", "Sensitivity", "X"}},
	} {
		if got := jsonKeys(t, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s keys %v, want %v", tc.name, got, tc.want)
		}
	}
}
