package unico

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"unico/internal/flightrec"
)

func flightConfig(dir string) Config {
	return Config{
		BatchSize: 6, Iterations: 3, BudgetMax: 15, Seed: 1,
		FlightRecordFile: filepath.Join(dir, "run.jsonl"),
	}
}

// TestFlightRecordMatchesProgress pins the acceptance criterion that the
// durable artifact's per-iteration costs are exactly the values the Progress
// callback reported — one source of truth, recorded at the same boundary.
func TestFlightRecordMatchesProgress(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flightConfig(t.TempDir())
	var seen []IterationProgress
	cfg.Progress = func(ip IterationProgress) { seen = append(seen, ip) }
	res, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	d, skipped, err := flightrec.Load(cfg.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d artifact lines", skipped)
	}
	if d.Header.Method != "UNICO" || d.Header.Seed != 1 || d.Header.RunID == "" {
		t.Errorf("header = %+v", d.Header)
	}
	if d.Header.Workload == "" {
		t.Error("header missing workload name")
	}
	if d.Header.Fingerprint == nil {
		t.Error("header missing options fingerprint")
	}
	if len(d.Iters) != len(seen) {
		t.Fatalf("artifact has %d iterations, Progress reported %d", len(d.Iters), len(seen))
	}
	for i, it := range d.Iters {
		ip := seen[i]
		if it.Iter != ip.Iter || it.SimHours != ip.SimHours || it.Evals != ip.Evaluations {
			t.Errorf("iteration %d: artifact {iter %d sim %v evals %d} != progress {iter %d sim %v evals %d}",
				i, it.Iter, it.SimHours, it.Evals, ip.Iter, ip.SimHours, ip.Evaluations)
		}
		if math.IsNaN(float64(it.UUL)) {
			t.Errorf("iteration %d: NaN UUL", it.Iter)
		}
		if len(it.RungAlive) == 0 || it.RungAlive[0] != cfg.BatchSize {
			t.Errorf("iteration %d: survivor curve %v does not start at the batch size %d",
				it.Iter, it.RungAlive, cfg.BatchSize)
		}
	}
	if d.Summary == nil {
		t.Fatal("no summary record")
	}
	if d.Summary.Interrupted {
		t.Error("uninterrupted run marked interrupted")
	}
	if last := d.Iters[len(d.Iters)-1]; last.Iter != cfg.Iterations || last.Evals != res.Evaluations ||
		last.SimHours != res.SimulatedHours {
		t.Errorf("last iteration {iter %d evals %d hours %v} does not match result {iters %d evals %d hours %v}",
			last.Iter, last.Evals, last.SimHours, cfg.Iterations, res.Evaluations, res.SimulatedHours)
	}
}

// TestFlightRecordKillResumeIdentical is the tentpole acceptance test: kill a
// recorded run mid-flight, resume it from its checkpoint, and the stitched
// artifact's iteration and summary records must be identical to those of an
// uninterrupted run. (Headers differ by design: run ID and start time are
// per-process.)
func TestFlightRecordKillResumeIdentical(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	full := flightConfig(dir)
	full.Iterations = 4
	full.FlightRecordFile = filepath.Join(dir, "full.jsonl")
	if _, err := OptimizeContext(context.Background(), p, full); err != nil {
		t.Fatal(err)
	}
	want, _, err := flightrec.Load(full.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}

	killed := full
	killed.FlightRecordFile = filepath.Join(dir, "killed.jsonl")
	killed.CheckpointFile = filepath.Join(dir, "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed.Progress = func(ip IterationProgress) {
		if ip.Iter == 2 {
			cancel()
		}
	}
	if _, err := OptimizeContext(ctx, p, killed); err != nil {
		t.Fatal(err)
	}
	mid, _, err := flightrec.Load(killed.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Iters) != 2 {
		t.Fatalf("interrupted artifact has %d iterations, want 2", len(mid.Iters))
	}
	if mid.Summary == nil || !mid.Summary.Interrupted {
		t.Fatalf("interrupted artifact summary = %+v, want Interrupted", mid.Summary)
	}

	resumed := killed
	resumed.Progress = nil
	resumed.Resume = true
	if _, err := OptimizeContext(context.Background(), p, resumed); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := flightrec.Load(resumed.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("stitched artifact has %d malformed lines", skipped)
	}
	if !reflect.DeepEqual(want.Iters, got.Iters) {
		t.Errorf("iteration records diverged after kill/resume:\nwant %+v\ngot  %+v", want.Iters, got.Iters)
	}
	if !reflect.DeepEqual(want.Summary, got.Summary) {
		t.Errorf("summary diverged after kill/resume:\nwant %+v\ngot  %+v", want.Summary, got.Summary)
	}
}

// TestFlightRecordIdenticalAcrossSearchWorkers pins the acquisition pool's
// determinism contract at the facade layer: the same seed run serially
// (SearchWorkers=1) and on a wide pool (SearchWorkers=8) must leave flight
// records with identical iteration records and summaries — the
// worker count is a wall-clock knob, never a result knob.
func TestFlightRecordIdenticalAcrossSearchWorkers(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	serial := flightConfig(dir)
	serial.SearchWorkers = 1
	serial.FlightRecordFile = filepath.Join(dir, "serial.jsonl")
	sres, err := OptimizeContext(context.Background(), p, serial)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := flightrec.Load(serial.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}

	parallel := flightConfig(dir)
	parallel.SearchWorkers = 8
	parallel.FlightRecordFile = filepath.Join(dir, "parallel.jsonl")
	pres, err := OptimizeContext(context.Background(), p, parallel)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := flightrec.Load(parallel.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sres.Front, pres.Front) || sres.SimulatedHours != pres.SimulatedHours {
		t.Error("search result diverged across SearchWorkers settings")
	}
	if !reflect.DeepEqual(want.Iters, got.Iters) {
		t.Errorf("iteration records diverged across SearchWorkers:\nserial   %+v\nparallel %+v", want.Iters, got.Iters)
	}
	if !reflect.DeepEqual(want.Summary, got.Summary) {
		t.Errorf("summary diverged across SearchWorkers:\nserial   %+v\nparallel %+v", want.Summary, got.Summary)
	}
}

func TestFlightRecordNSGAIIRejected(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flightConfig(t.TempDir())
	cfg.Method = MethodNSGAII
	if _, err := OptimizeContext(context.Background(), p, cfg); err == nil {
		t.Error("flight recording accepted for MethodNSGAII")
	}
}

// TestFlightRecordingDoesNotPerturbSearch: recording is observation only —
// the front with and without it is identical.
func TestFlightRecordingDoesNotPerturbSearch(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	bare := Config{BatchSize: 6, Iterations: 3, BudgetMax: 15, Seed: 1}
	ref, err := OptimizeContext(context.Background(), p, bare)
	if err != nil {
		t.Fatal(err)
	}
	rec := flightConfig(t.TempDir())
	got, err := OptimizeContext(context.Background(), p, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Front, got.Front) || ref.SimulatedHours != got.SimulatedHours {
		t.Error("flight recording changed the search result")
	}
}

// TestParentFlightRecordReadsTheSame: testdata/parent/flight.jsonl is the
// flightConfig run's record as an older commit wrote it, with each
// iteration's objective bests, running hypervolume and phase window and a
// summary that repeated the last iteration's totals (see
// testdata/parent/README.md). It must still load
// whole, hold the same records as this code's record of the same run, and
// read the same in its state line and report.
func TestParentFlightRecordReadsTheSame(t *testing.T) {
	path := filepath.Join("testdata", "parent", "flight.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"best":`, `"hypervolume":`, `"phases":`, `"front_size":`} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("%s holds no %s: it is not the older format", path, field)
		}
	}
	old, skipped, err := flightrec.Load(path)
	if err != nil || skipped != 0 {
		t.Fatalf("Load: %v, %d lines skipped", err, skipped)
	}

	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flightConfig(t.TempDir())
	if _, err := OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	cur, _, err := flightrec.Load(cfg.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}

	// The run ID, start time and build revision are per process.
	wantHdr, gotHdr := cur.Header, old.Header
	for _, h := range []*flightrec.Header{&wantHdr, &gotHdr} {
		h.RunID, h.StartedAt, h.Revision = "", "", ""
	}
	if !reflect.DeepEqual(gotHdr, wantHdr) {
		t.Errorf("header %+v, this code's %+v", gotHdr, wantHdr)
	}
	old.Header = cur.Header
	if cur.Summary == nil {
		t.Error("this code's record has no summary")
	}
	if d := flightrec.FirstDifference(old, cur); d != "" {
		t.Errorf("the older record (a) and this code's (b) differ: %s", d)
	}
	if got, want := old.State(), cur.State(); got != want {
		t.Errorf("State = %q, this code's %q", got, want)
	}
	if got, want := flightrec.ReportBody(*old), flightrec.ReportBody(*cur); got != want {
		t.Errorf("ReportBody differs:\n%s\nthis code's:\n%s", got, want)
	}
}

// TestReportCurveNeverFalls: the report's hypervolume curve is drawn against
// one reference for the whole record, so it rises or holds as the front
// improves. At iteration 2 this run's front loses its highest-power and
// largest-area points: a curve measured against each iteration's own nadir
// falls there.
func TestReportCurveNeverFalls(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BatchSize: 6, Iterations: 12, BudgetMax: 15, Seed: 2,
		FlightRecordFile: filepath.Join(t.TempDir(), "run.jsonl")}
	if _, err := OptimizeContext(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	d, _, err := flightrec.Load(cfg.FlightRecordFile)
	if err != nil {
		t.Fatal(err)
	}
	body := flightrec.ReportBody(*d)
	const open = `<polyline points="`
	i := strings.Index(body, open)
	if i < 0 {
		t.Fatalf("report has no curve:\n%s", body)
	}
	pts := strings.Fields(body[i+len(open) : i+len(open)+strings.IndexByte(body[i+len(open):], '"')])
	if len(pts) != cfg.Iterations {
		t.Fatalf("curve has %d points for %d iterations", len(pts), cfg.Iterations)
	}
	// SVG y grows downward: a falling curve is a growing y.
	prev := math.Inf(1)
	for k, pt := range pts {
		_, ys, _ := strings.Cut(pt, ",")
		y, err := strconv.ParseFloat(ys, 64)
		if err != nil {
			t.Fatalf("point %q: %v", pt, err)
		}
		if y > prev {
			t.Errorf("curve falls at iteration %d: y %v after %v (%s)", k+1, y, prev, pts)
		}
		prev = y
	}
}
