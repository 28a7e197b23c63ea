package unico

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"unico/internal/core"
	"unico/internal/flightrec"
)

// TestRefusedResumeTouchesNothing: a resume refused for a fingerprint
// mismatch "never started" — so it must leave the checkpoint, its journal and
// the flight record of the run they belong to byte-identical.
func TestRefusedResumeTouchesNothing(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flightConfig(t.TempDir())
	cfg.CheckpointFile = filepath.Join(filepath.Dir(cfg.FlightRecordFile), "run.ckpt")
	if _, err := OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	files := []string{cfg.CheckpointFile, cfg.CheckpointFile + ".journal", cfg.FlightRecordFile}
	before := make([][]byte, len(files))
	for i, f := range files {
		if before[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Resume, cfg.Seed = true, 2
	res, err := OptimizeContext(context.Background(), p, cfg)
	if res != nil || !errors.Is(err, core.ErrResumeMismatch) {
		t.Fatalf("resume at another seed = %v, %v; want nil, ErrResumeMismatch", res, err)
	}
	for i, f := range files {
		after, err := os.ReadFile(f)
		if err != nil || !bytes.Equal(before[i], after) {
			t.Errorf("%s changed under a refused resume (err=%v)", filepath.Base(f), err)
		}
	}
}

// observedRun is everything one co-search reported through the values in its
// Config.
type observedRun struct {
	res      *Result
	progress int
	flight   *flightrec.RunData
}

func runObserved(t *testing.T, p *Platform, seed int64, runID, dir string) *observedRun {
	o := &observedRun{}
	cfg := Config{
		BatchSize: 6, Iterations: 3, BudgetMax: 15, Seed: seed,
		RunID:            runID,
		FlightRecordFile: filepath.Join(dir, runID+".jsonl"),
		Progress:         func(IterationProgress) { o.progress++ },
	}
	var err error
	if o.res, err = OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Error(err)
		return o
	}
	if o.flight, _, err = flightrec.Load(cfg.FlightRecordFile); err != nil {
		t.Error(err)
	}
	return o
}

// TestTwoCoSearchesOneProcess runs two co-searches concurrently, each with
// its own progress callback and flight file,
// and requires each to observe exactly what it observes running alone:
// nothing a run reports through is process-wide any more.
//
// One thing still is: disttrace's active recorder (off here;
// internal/fleet's TestTwoCoSearchesOneFleet runs two co-searches under one).
// bench/ compiles against it; ROADMAP [bench-seam] carries it.
func TestTwoCoSearchesOneProcess(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2}
	ids := []string{"run-a", "run-b"}
	solo := make([]*observedRun, len(seeds))
	for i := range seeds {
		solo[i] = runObserved(t, p, seeds[i], ids[i], t.TempDir())
	}
	both := make([]*observedRun, len(seeds))
	var wg sync.WaitGroup
	for i := range seeds {
		wg.Add(1)
		dir := t.TempDir()
		go func() {
			defer wg.Done()
			both[i] = runObserved(t, p, seeds[i], ids[i], dir)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const iters = 3
	for i, got := range both {
		want := solo[i]
		if !reflect.DeepEqual(want.res.Front, got.res.Front) || !reflect.DeepEqual(want.res.Best, got.res.Best) ||
			want.res.SimulatedHours != got.res.SimulatedHours || want.res.Evaluations != got.res.Evaluations {
			t.Errorf("%s: result differs from its solo run", ids[i])
		}
		if got.progress != iters {
			t.Errorf("%s: %d progress callbacks, want %d", ids[i], got.progress, iters)
		}
		if !reflect.DeepEqual(want.flight.Iters, got.flight.Iters) {
			t.Errorf("%s: flight iterations differ from the solo run's", ids[i])
		}
		if !reflect.DeepEqual(want.flight.Summary, got.flight.Summary) {
			t.Errorf("%s: flight summary %+v, solo %+v", ids[i], got.flight.Summary, want.flight.Summary)
		}
		wh, gh := want.flight.Header, got.flight.Header
		if gh.RunID != ids[i] {
			t.Errorf("%s: flight header carries run ID %q", ids[i], gh.RunID)
		}
		wh.StartedAt, gh.StartedAt = "", ""
		if !reflect.DeepEqual(wh, gh) {
			t.Errorf("%s: flight header %+v, solo %+v", ids[i], gh, wh)
		}
	}
}
