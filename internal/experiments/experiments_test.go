package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unico/internal/baselines"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/workload"
)

// tinyScale keeps the runners fast enough for unit tests while still
// exercising every code path.
func tinyScale() Scale {
	return Scale{
		Batch: 6, MaxIter: 2, BMax: 12,
		HASCOIter: 2, UNICOIter: 4,
		NSGAPop: 6, NSGAGen: 2,
		AscendBatch: 5, AscendIter: 2, AscendBMax: 10,
		Seed: 1,
	}
}

func TestRunEdgeCloudTable(t *testing.T) {
	var buf bytes.Buffer
	s := tinyScale()
	s.CheckpointDir, s.FlightDir = t.TempDir(), t.TempDir()
	res := RunEdgeCloudTable(&buf, hw.Edge, s)
	if len(res.Rows) != 7*3 {
		t.Fatalf("rows = %d, want 21 (7 networks x 3 methods)", len(res.Rows))
	}
	methods := map[string]int{}
	feasibleRows := 0
	for _, r := range res.Rows {
		methods[r.Method]++
		if r.CostHours <= 0 {
			t.Errorf("%s/%s: zero cost", r.Network, r.Method)
		}
		if r.Metrics.Valid() {
			feasibleRows++
		}
	}
	if methods["HASCO"] != 7 || methods["NSGAII"] != 7 || methods["UNICO"] != 7 {
		t.Errorf("method counts: %v", methods)
	}
	if feasibleRows < 15 {
		t.Errorf("only %d/21 rows produced feasible designs", feasibleRows)
	}
	if !strings.Contains(buf.String(), "UNICO") {
		t.Error("printed table missing UNICO rows")
	}
	// UNICO must be cheaper than HASCO on every network (the cost shape).
	cost := map[string]map[string]float64{}
	for _, r := range res.Rows {
		if cost[r.Network] == nil {
			cost[r.Network] = map[string]float64{}
		}
		cost[r.Network][r.Method] = r.CostHours
	}
	for net, byMethod := range cost {
		if u, h := byMethod["UNICO"], byMethod["HASCO"]; u > 0 && h > 0 && u >= h {
			t.Errorf("%s: UNICO not cheaper than HASCO (%.2f h vs %.2f h)", net, u, h)
		}
	}
	// The HASCO baseline runs through the same lifecycle as UNICO, so it
	// leaves the same resumable, reportable artifacts.
	for _, net := range workload.Table12Networks() {
		name := "table-edge-" + net.Name + "-hasco"
		rs, err := checkpoint.Load(filepath.Join(s.CheckpointDir, name+".ckpt"))
		if err != nil {
			t.Fatalf("%s checkpoint: %v", name, err)
		}
		if rs.LastIter() != s.HASCOIter {
			t.Errorf("%s checkpoint ends at iteration %d, want %d", name, rs.LastIter(), s.HASCOIter)
		}
		d, skipped, err := flightrec.Load(filepath.Join(s.FlightDir, name+".run.jsonl"))
		if err != nil || skipped != 0 {
			t.Fatalf("%s flight record: %v (%d lines skipped)", name, err, skipped)
		}
		if len(d.Iters) != s.HASCOIter || d.Summary == nil || d.Summary.Interrupted {
			t.Errorf("%s flight record: %d iterations, summary %+v", name, len(d.Iters), d.Summary)
		}
	}
}

// A cancelled sweep must not sit through its slowest baseline: HASCO (full
// budget, one worker) stops at the same safe points as UNICO.
func TestCancelledBaselineRunsNoIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := tinyScale()
	s.Context = ctx
	p := spatialPlatform(hw.Edge, workload.MobileNetV3Small())
	res := s.run("cancelled-hasco", p, baselines.HASCOOptions(s.Batch, s.HASCOIter, s.BMax, s.Seed))
	if len(res.Trace) != 0 || len(res.All) != 0 || res.Evals != 0 {
		t.Errorf("cancelled HASCO completed %d iterations (%d candidates, %d evals)",
			len(res.Trace), len(res.All), res.Evals)
	}
}

// A resume refused for a fingerprint mismatch must be read-only: the
// checkpoint, its journal and the flight record of the run it belongs to
// stay byte-identical.
func TestRefusedResumeTouchesNothing(t *testing.T) {
	s := tinyScale()
	s.CheckpointDir, s.FlightDir = t.TempDir(), t.TempDir()
	p := spatialPlatform(hw.Edge, workload.MobileNetV3Small())
	if res := s.run("run", p, core.UNICOOptions(s.Batch, s.MaxIter, s.BMax, 1)); res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	files := []string{
		filepath.Join(s.CheckpointDir, "run.ckpt"),
		filepath.Join(s.CheckpointDir, "run.ckpt.journal"),
		filepath.Join(s.FlightDir, "run.run.jsonl"),
	}
	before := make([][]byte, len(files))
	for i, f := range files {
		var err error
		if before[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}

	s.Resume = true
	res := s.run("run", p, core.UNICOOptions(s.Batch, s.MaxIter, s.BMax, 2))
	if !errors.Is(res.CheckpointErr, core.ErrResumeMismatch) || len(res.All) != 0 {
		t.Fatalf("resume at another seed: err %v, %d candidates; want ErrResumeMismatch and none",
			res.CheckpointErr, len(res.All))
	}
	for i, f := range files {
		after, err := os.ReadFile(f)
		if err != nil || !bytes.Equal(before[i], after) {
			t.Errorf("%s changed under a refused resume (err=%v)", filepath.Base(f), err)
		}
	}
}

// The wall clock reaches run metadata only through the injected now func
// (the package's single detclock allow); pinning it must pin the StartedAt
// stamp of every flight-record header an experiment writes.
func TestRunMetadataTimestampIsInjected(t *testing.T) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	old := now
	now = func() time.Time { return fixed }
	defer func() { now = old }()

	s := tinyScale()
	s.FlightDir = t.TempDir()
	RunGeneralization(nil, s)

	paths, err := filepath.Glob(filepath.Join(s.FlightDir, "*.run.jsonl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no flight records written (err=%v)", err)
	}
	for _, p := range paths {
		d, _, err := flightrec.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		if want := "2026-01-02T03:04:05Z"; d.Header.StartedAt != want {
			t.Errorf("%s: StartedAt = %q, want the pinned %q", filepath.Base(p), d.Header.StartedAt, want)
		}
	}
}

func TestRunAblation(t *testing.T) {
	res := RunAblation(nil, tinyScale())
	if len(res.Curves) != 4 {
		t.Fatalf("curves = %d, want 4 variants", len(res.Curves))
	}
	names := map[string]bool{}
	for _, c := range res.Curves {
		names[c.Method] = true
		if len(c.Hours) == 0 || len(c.Hours) != len(c.HVDiff) {
			t.Errorf("%s: malformed curve", c.Method)
		}
		for _, d := range c.HVDiff {
			if d < 0 {
				t.Errorf("%s: negative HV difference %v", c.Method, d)
			}
		}
	}
	for _, want := range []string{"HASCO", "SH+Champion", "MSH+Champion", "UNICO"} {
		if !names[want] {
			t.Errorf("missing variant %q", want)
		}
	}
}

func TestCurveHelpers(t *testing.T) {
	c := MethodCurve{Method: "X", Hours: []float64{1, 2, 3}, HVDiff: []float64{0.5, 0.2, 0.1}}
	if c.Final() != 0.1 {
		t.Errorf("Final = %v", c.Final())
	}
	if (MethodCurve{}).Final() != 0 {
		t.Error("empty Final != 0")
	}
	if relImprove(10, 7) != 30 {
		t.Errorf("relImprove = %v", relImprove(10, 7))
	}
	if relImprove(0, 7) != 0 {
		t.Error("relImprove with zero base")
	}
}

func TestRunRobustnessIndicator(t *testing.T) {
	var buf bytes.Buffer
	res := RunRobustnessIndicator(&buf, tinyScale())
	if res.FrontSize == 0 {
		t.Fatal("empty training front")
	}
	for _, p := range res.Pairs {
		if p.Robust.Sensitivity > p.Fragile.Sensitivity {
			t.Errorf("pair mislabeled: robust R %v > fragile R %v",
				p.Robust.Sensitivity, p.Fragile.Sensitivity)
		}
		if len(p.Robust.ValLatency) == 0 {
			t.Error("pair missing validation latencies")
		}
	}
}

func TestComparablePairs(t *testing.T) {
	if got := ppaClose([]float64{100, 10, 1}, []float64{105, 10.2, 1.01}, 0.10); !got {
		t.Error("close PPAs rejected")
	}
	if got := ppaClose([]float64{100, 10, 1}, []float64{150, 10, 1}, 0.10); got {
		t.Error("distant PPAs accepted")
	}
}

func TestRunGeneralization(t *testing.T) {
	res := RunGeneralization(nil, tinyScale())
	if res.UNICOHW == "" || res.HASCOHW == "" {
		t.Skip("tiny scale produced no representative; acceptable at this size")
	}
	if len(res.Rows) == 0 {
		t.Fatal("no validation rows")
	}
	for _, r := range res.Rows {
		if r.UNICODist <= 0 || r.HASCODist <= 0 {
			t.Errorf("%s: degenerate distances %+v", r.Network, r)
		}
	}
}

func TestRunAscend(t *testing.T) {
	var buf bytes.Buffer
	res := RunAscend(&buf, tinyScale())
	if len(res.Rows) == 0 {
		t.Fatal("no Ascend rows")
	}
	for _, r := range res.Rows {
		if r.DefaultLatencyMs <= 0 || r.FoundLatencyMs <= 0 {
			t.Errorf("%s: degenerate latencies %+v", r.Network, r)
		}
		if r.FoundHW == "" {
			t.Errorf("%s: missing found config", r.Network)
		}
	}
	if !strings.Contains(buf.String(), "default:") {
		t.Error("output missing the default config")
	}
}

func TestMinEuclidDistance(t *testing.T) {
	pool := [][]float64{{10, 100}, {20, 50}}
	d1 := minEuclidDistance([]float64{10, 100}, pool)
	d2 := minEuclidDistance([]float64{20, 100}, pool)
	if d1 >= d2 {
		t.Errorf("dominating point not closer: %v >= %v", d1, d2)
	}
}

func TestScales(t *testing.T) {
	p := PaperScale()
	if p.Batch != 30 || p.BMax != 300 || p.AscendBatch != 8 || p.AscendBMax != 200 {
		t.Errorf("PaperScale does not match the paper: %+v", p)
	}
	s := SmallScale()
	if s.Batch >= p.Batch || s.BMax >= p.BMax {
		t.Errorf("SmallScale not smaller: %+v", s)
	}
}

// TestAblationMatchesGolden: the Fig. 10 ablation at small scale prints
// byte for byte what testdata/fig10_small.golden holds. The golden was
// captured when every trace point stored its front; the curves now read
// fronts core.Result.Fronts derives, and must not move. A change that moves
// the curves on purpose re-captures the file and says why.
func TestAblationMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig10_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	RunAblation(&got, SmallScale())
	if got.String() != string(want) {
		t.Errorf("ablation output diverged from the golden:\n%s", got.String())
	}
}

// checkNonIncreasing requires every curve of res to be non-increasing: a
// method's front only grows with time, so its regret can only fall.
func checkNonIncreasing(t *testing.T, what string, res CurveResult) {
	t.Helper()
	for _, c := range res.Curves {
		for g := 1; g < len(c.HVDiff); g++ {
			if c.HVDiff[g] > c.HVDiff[g-1] {
				t.Errorf("%s, %s: regret rises from %v to %v at %.3f h", what, c.Method, c.HVDiff[g-1], c.HVDiff[g], c.Hours[g])
				break
			}
		}
	}
}

// TestRegretCurvesNeverRise checks every Fig. 10 curve at SmallScale and
// every Fig. 7 curve on both scenarios at SmallScale with a HASCO budget of
// two iterations, the least at which a hypervolume of a thinned front made
// curves rise on both (UNICO's Fig. 10 curve rose from 0 at seed 1).
func TestRegretCurvesNeverRise(t *testing.T) {
	checkNonIncreasing(t, "Fig. 10", RunAblation(nil, SmallScale()))
	s := SmallScale()
	s.HASCOIter = 2
	for _, sc := range []hw.Scenario{hw.Edge, hw.Cloud} {
		checkNonIncreasing(t, "Fig. 7 "+sc.String(), RunHypervolumeCurves(nil, sc, s))
	}
}
