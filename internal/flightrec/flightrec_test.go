package flightrec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unico/internal/durable"
	"unico/internal/durable/faultfs"
)

func testHeader() Header {
	return Header{
		RunID:     "abcd1234",
		StartedAt: "2026-01-02T03:04:05Z",
		Revision:  "deadbeef1234",
		Method:    "UNICO",
		Workload:  "MobileNetV3-S",
		Seed:      7,
		Batch:     6,
		MaxIter:   4,
		BMax:      15,
	}
}

// testIteration is iteration i of a run whose front improves every
// iteration: each of iteration i-1's (latency ms, power mW, area mm²) points
// is dominated by one of iteration i's, and the front grows to 4 points, as
// the front of a growing set of designs does.
func testIteration(i int) Iteration {
	s := 1 + 1/float64(i)
	var front [][]float64
	for j := 0; j < min(i+1, 4); j++ {
		k := float64(j + 1)
		front = append(front, []float64{2 * k * s, 120 / k * s, (0.8 + 0.4/k) * s})
	}
	return Iteration{
		Iter:          i,
		SimHours:      float64(i) * 1.5,
		UUL:           durable.ExtFloat(math.Inf(1)),
		Evals:         10 * i,
		Admitted:      i,
		TrainSize:     2 * i,
		BatchFeasible: i,
		Front:         front,
		RungAlive:     []int{6, 3, 1},
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		r.RecordIteration(testIteration(i))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if err := r.Finish(Summary{Interrupted: true}); err != nil {
		t.Fatal(err)
	}

	d, skipped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d lines, want 0", skipped)
	}
	if d.Header.RunID != "abcd1234" || d.Header.Method != "UNICO" || d.Header.Seed != 7 {
		t.Errorf("header mangled: %+v", d.Header)
	}
	if len(d.Iters) != 3 {
		t.Fatalf("loaded %d iterations, want 3", len(d.Iters))
	}
	want := testIteration(2)
	want.Type = TypeIteration
	if !reflect.DeepEqual(d.Iters[1], want) {
		t.Errorf("iteration 2 = %+v, want %+v", d.Iters[1], want)
	}
	if d.Summary == nil {
		t.Fatal("no summary")
	}
	if !d.Summary.Interrupted {
		t.Errorf("summary dropped caller fields: %+v", d.Summary)
	}
	// The run's totals are read from the last iteration.
	if got := d.State(); got != "interrupted after 3 iterations — 4.5 simulated hours, 30 evals, front 4" {
		t.Errorf("State = %q", got)
	}
	if last := d.Iters[len(d.Iters)-1].Iter; last != 3 {
		t.Errorf("last iteration = %d, want 3", last)
	}
}

// TestResumeProducesIdenticalArtifact is the file-level half of the
// kill/resume identity guarantee: an artifact whose run died after iteration
// 2 and resumed from there ends up byte-identical to one written by an
// uninterrupted run (given the same header, as in a real resume the caller
// reuses the checkpointed identity).
func TestResumeProducesIdenticalArtifact(t *testing.T) {
	dir := t.TempDir()
	hdr := testHeader()

	full := filepath.Join(dir, "full.jsonl")
	r, err := Create(full, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		r.RecordIteration(testIteration(i))
	}
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}

	killed := filepath.Join(dir, "killed.jsonl")
	r, err = Create(killed, hdr)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(1))
	r.RecordIteration(testIteration(2))
	if err := r.Close(); err != nil { // killed: no summary
		t.Fatal(err)
	}

	r, err = Resume(killed, hdr, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(3))
	r.RecordIteration(testIteration(4))
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}

	want, _ := os.ReadFile(full)
	got, _ := os.ReadFile(killed)
	if string(want) != string(got) {
		t.Errorf("resumed artifact differs from uninterrupted one:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestResumeTruncatesBeyondBoundary: records past the checkpoint boundary,
// an existing summary, and a torn trailing line are all dropped on resume.
func TestResumeTruncatesBeyondBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		r.RecordIteration(testIteration(i))
	}
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}
	// Simulate crash residue: a torn (newline-less) partial record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"iteration","iter":9`)
	f.Close()

	r, err = Resume(path, testHeader(), 2)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(3))
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}

	d, skipped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d lines, want 0 after truncation", skipped)
	}
	if n := len(d.Iters); n != 3 {
		t.Fatalf("%d iterations after resume, want 3 (1,2 kept + 3 appended)", n)
	}
	if d.Iters[2].Iter != 3 {
		t.Errorf("last iteration = %d, want 3", d.Iters[2].Iter)
	}
	if d.Summary == nil {
		t.Error("no summary after the resumed run finished")
	}
}

func TestResumeMissingFileFallsBackToCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.jsonl")
	r, err := Resume(path, testHeader(), 5)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(6))
	if err := r.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}
	d, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Iters) != 1 || d.Iters[0].Iter != 6 {
		t.Errorf("fallback artifact = %+v", d.Iters)
	}
}

func TestLoadRejectsMalformedInput(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.jsonl":    "",
		"garbage.jsonl":  "this is not json\n",
		"headless.jsonl": `{"type":"iteration","iter":1}` + "\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(p); err == nil {
			t.Errorf("%s: Load accepted malformed artifact", name)
		}
	}
}

func TestLoadSkipsTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(1))
	r.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString(`{"type":"iter`) // crash mid-append
	f.Close()

	d, skipped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(d.Iters) != 1 || d.Summary != nil {
		t.Errorf("unexpected shape: %d iters, summary %v", len(d.Iters), d.Summary)
	}
}

func TestRecorderErrorLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	// Operations: open, header write+sync, iteration 1 write+sync, then the
	// write of iteration 2 (index 5) fails: it must latch instead of
	// panicking, and Finish must surface it.
	r, err := create(faultfs.Failing(5, false), path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	r.RecordIteration(testIteration(1))
	if r.Err() != nil {
		t.Fatalf("iteration 1: %v", r.Err())
	}
	r.RecordIteration(testIteration(2))
	if r.Err() == nil {
		t.Fatal("write failure not latched")
	}
	r.RecordIteration(testIteration(3)) // must be a silent no-op
	if err := r.Finish(Summary{}); err == nil {
		t.Error("Finish suppressed the latched error")
	}
	if d, _, err := Load(path); err != nil || len(d.Iters) != 1 || d.Summary != nil {
		t.Errorf("disabled recorder kept writing: %+v, %v", d, err)
	}
}

func TestHeaderFingerprintRoundTrip(t *testing.T) {
	hdr := testHeader()
	hdr.Fingerprint = map[string]any{"platform": "Spatial", "dim": 6.0}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	d, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := d.Header.Fingerprint.(map[string]any)
	if !ok || fp["platform"] != "Spatial" {
		t.Errorf("fingerprint = %#v", d.Header.Fingerprint)
	}
	if !strings.Contains(mustJSON(t, d.Header), `"fingerprint"`) {
		t.Error("fingerprint dropped from wire form")
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFirstDifference: two records agree only when every iteration record
// and the summary agree in order; the header is not compared, and the first
// disagreement is named with both sides.
func TestFirstDifference(t *testing.T) {
	record := func() *RunData {
		d := &RunData{Header: testHeader(), Summary: &Summary{}}
		for i := 1; i <= 3; i++ {
			d.Iters = append(d.Iters, testIteration(i))
		}
		return d
	}
	for _, tc := range []struct {
		name   string
		mutate func(*RunData)
		want   []string // substrings of the difference; none means equal
	}{
		{name: "equal but for the header", mutate: func(d *RunData) {
			d.Header.RunID, d.Header.StartedAt, d.Header.Revision = "other", "", ""
		}},
		{name: "dropped iteration", mutate: func(d *RunData) { d.Iters = append(d.Iters[:1], d.Iters[2:]...) },
			want: []string{"iteration record 2 differs", `"iter":2`, `"iter":3`}},
		{name: "better front point", mutate: func(d *RunData) { d.Iters[2].Front[1][0] = 0.5 },
			want: []string{"iteration record 3 differs", `"front":[[2.6666666666666665,160,1.6],[0.5,`}},
		{name: "one mutated field", mutate: func(d *RunData) { d.Iters[0].Admitted++ },
			want: []string{"iteration record 1 differs", `"admitted":1`, `"admitted":2`}},
		{name: "missing tail", mutate: func(d *RunData) { d.Iters = d.Iters[:2] },
			want: []string{"iteration record 3 differs", "b: null"}},
		{name: "missing summary", mutate: func(d *RunData) { d.Summary = nil },
			want: []string{"summary differs", `a: {"type":""}`, "b: null"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := record(), record()
			tc.mutate(b)
			got := FirstDifference(a, b)
			if (got == "") != (len(tc.want) == 0) {
				t.Fatalf("FirstDifference = %q, want a difference holding %q", got, tc.want)
			}
			for _, s := range tc.want {
				if !strings.Contains(got, s) {
					t.Errorf("FirstDifference lacks %q:\n%s", s, got)
				}
			}
			if back := FirstDifference(b, a); (back == "") != (got == "") {
				t.Errorf("FirstDifference is not symmetric: %q one way, %q the other", got, back)
			}
		})
	}
}
