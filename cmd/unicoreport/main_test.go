package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unico/internal/disttrace"
	"unico/internal/flightrec"
)

// writeFlight records a finished run with one iteration per latency of its
// one-point front.
func writeFlight(t *testing.T, path, runID string, latencies ...float64) {
	t.Helper()
	r, err := flightrec.Create(path, flightrec.Header{RunID: runID, Method: "UNICO", Seed: 1, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, lat := range latencies {
		r.RecordIteration(flightrec.Iteration{Iter: i + 1, Evals: 10 * (i + 1),
			Front: [][]float64{{lat, 2, 3}}, RungAlive: []int{4, 2}})
	}
	if err := r.Finish(flightrec.Summary{}); err != nil {
		t.Fatal(err)
	}
}

// chain is one complete remote eval in trace: client → attempt → shard →
// engine under an iteration root, all spans ended ok.
func chain(trace, id string, t0 int64) []disttrace.Event {
	var evs []disttrace.Event
	parent := ""
	for i, kind := range []string{"iteration", "client", "attempt", "shard", "engine"} {
		name := "/v1/ppa"
		if kind == "iteration" {
			name = "iter 1"
		}
		span := id + "-" + kind
		evs = append(evs, disttrace.Event{Ev: "start", Trace: trace, Span: span, Parent: parent,
			Kind: kind, Name: name, Proc: "p", TimeUS: t0 + int64(i)*10})
		parent = span
	}
	for i := 4; i >= 0; i-- {
		evs = append(evs, disttrace.Event{Ev: "end", Trace: trace, Span: evs[i].Span,
			TimeUS: t0 + 1000 - int64(i)*10, Status: "ok"})
	}
	return evs
}

func writeSpans(t *testing.T, path string, evs ...disttrace.Event) {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	writeFlight(t, at("run.jsonl"), "small", 0.7, 0.5)
	writeFlight(t, at("worse.jsonl"), "other", 0.7, 0.7)
	// "small" has one eval chain, "big" two: the largest-trace guess would
	// pick "big", so only the flight header's run ID selects "small".
	writeSpans(t, at("spans_a.jsonl"), append(chain("small", "s1", 1_000), chain("big", "b1", 2_000)...)...)
	writeSpans(t, at("spans_b.jsonl"), chain("big", "b2", 3_000)...)
	writeSpans(t, at("orphan.jsonl"), append(chain("small", "s1", 1_000),
		disttrace.Event{Ev: "start", Trace: "small", Span: "lost", Parent: "missing", Kind: "shard", TimeUS: 1_500})...)
	if err := os.WriteFile(at("empty.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(at("headerless.jsonl"), []byte(`{"type":"iteration","iter":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(at("bad.jsonl"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		args     []string
		code     int
		stdout   []string // substrings stdout must hold
		noStdout []string // substrings it must not
	}{
		{name: "flight record alone", args: []string{at("run.jsonl")}, code: 0,
			stdout: []string{"run small: finished after 2 iterations"}, noStdout: []string{"trace "}},
		{name: "span logs alone pick the largest trace", args: []string{at("spans_a.jsonl"), at("spans_b.jsonl")}, code: 0,
			stdout: []string{"trace big: 10 spans, 0 orphans", "evals: 2 (2 complete chains, 0 incomplete)"}},
		{name: "flight run ID wins over the largest trace", args: []string{"-gate", at("run.jsonl"), at("spans_a.jsonl"), at("spans_b.jsonl")}, code: 0,
			stdout: []string{"run small: finished", "trace small: 5 spans", "gate: ok"}},
		{name: "-run overrides the flight run ID", args: []string{"-run", "big", at("run.jsonl"), at("spans_a.jsonl"), at("spans_b.jsonl")}, code: 0,
			stdout: []string{"trace big: 10 spans"}},
		{name: "orphan fails the gate", args: []string{"-gate", at("orphan.jsonl")}, code: 1,
			stdout: []string{"1 orphans"}, noStdout: []string{"gate: ok"}},
		{name: "unknown -run", args: []string{"-run", "nope", at("spans_a.jsonl")}, code: 2},
		{name: "flight run ID absent from the span logs", args: []string{at("worse.jsonl"), at("spans_a.jsonl")}, code: 2},
		{name: "empty artifact", args: []string{at("empty.jsonl")}, code: 2},
		{name: "headerless artifact", args: []string{at("headerless.jsonl")}, code: 2},
		{name: "undecodable artifact", args: []string{at("bad.jsonl")}, code: 2},
		{name: "two flight records", args: []string{at("run.jsonl"), at("worse.jsonl")}, code: 2},
		{name: "-gate without span logs", args: []string{"-gate", at("run.jsonl")}, code: 2},
		{name: "no inputs", args: nil, code: 2},
		{name: "page write failure", args: []string{"-o", at("missing/page.html"), at("run.jsonl")}, code: 1},
		{name: "diff self", args: []string{"-diff", at("run.jsonl"), at("run.jsonl")}, code: 0,
			stdout: []string{"record the same 2 iterations"}},
		{name: "diff regression", args: []string{"-diff", at("run.jsonl"), at("worse.jsonl")}, code: 1,
			noStdout: []string{"the same"}},
		{name: "diff higher candidate", args: []string{"-diff", at("worse.jsonl"), at("run.jsonl")}, code: 1,
			noStdout: []string{"the same"}},
		{name: "diff malformed", args: []string{"-diff", at("run.jsonl"), at("bad.jsonl")}, code: 2},
		{name: "diff one file", args: []string{"-diff", at("run.jsonl")}, code: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("stdout lacks %q:\n%s", s, &stdout)
				}
			}
			for _, s := range tc.noStdout {
				if strings.Contains(stdout.String(), s) {
					t.Errorf("stdout holds %q:\n%s", s, &stdout)
				}
			}
		})
	}
}

// TestRunPage: a flight record alone renders exactly flightrec's report
// page, and with span logs the same page gains the trace section, with one
// stylesheet and one <h1>.
func TestRunPage(t *testing.T) {
	dir := t.TempDir()
	flight, spans, page := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "page.html")
	writeFlight(t, flight, "r1", 0.4, 0.2)
	writeSpans(t, spans, chain("r1", "c", 1_000)...)
	var out bytes.Buffer
	if code := run([]string{"-o", page, flight}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, &out)
	}
	d, _, err := flightrec.Load(flight)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(page)
	if want := flightrec.Page("unico run report — run.jsonl", "", flightrec.ReportBody(*d)); !bytes.Equal(got, want) {
		t.Errorf("flight-only page differs from flightrec's report page:\n%s", got)
	}

	if code := run([]string{"-o", page, flight, spans}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, &out)
	}
	got, _ = os.ReadFile(page)
	html := string(got)
	for _, s := range []string{"Hypervolume vs iteration", "<h2>Trace r1</h2>", "<h2>Waterfall</h2>", ".lane{"} {
		if !strings.Contains(html, s) {
			t.Errorf("combined page lacks %q", s)
		}
	}
	if strings.Count(html, "<style>") != 1 || strings.Count(html, "<h1>") != 1 || strings.Count(html, "<!DOCTYPE") != 1 {
		t.Errorf("combined page is not one page:\n%s", html)
	}
}

// TestRunPageOfRunInProgress: a flight record still being written — a
// header, some iteration records, no summary, and the torn half of the next
// line a crash or a concurrent append leaves — reports the run as running at
// its last whole iteration, on the page and on stdout alike.
func TestRunPageOfRunInProgress(t *testing.T) {
	dir := t.TempDir()
	flight, page := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "page.html")
	r, err := flightrec.Create(flight, flightrec.Header{RunID: "live", Method: "UNICO", Seed: 1, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	for i := 1; i <= iters; i++ {
		r.RecordIteration(flightrec.Iteration{Iter: i, Evals: 10 * i,
			Front: [][]float64{{1 / float64(i), 2, 3}}, RungAlive: []int{4, 2}})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(flight, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"iteration","iter":4,"sim_ho`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", page, flight}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	got, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	const open = `<p class="state">`
	html := string(got)
	i := strings.Index(html, open)
	j := strings.Index(html[i+len(open):], "</p>")
	if i < 0 || j < 0 {
		t.Fatalf("page has no state line:\n%s", html)
	}
	state := html[i+len(open) : i+len(open)+j]
	if want := fmt.Sprintf("running — iteration %d,", iters); !strings.HasPrefix(state, want) {
		t.Errorf("page state %q, want it to start %q", state, want)
	}
	if want := "run live: " + state + "\n"; !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout lacks the page's state line %q:\n%s", want, &stdout)
	}
}

// TestRunSummaryMatchesAnalyze: -summary writes exactly disttrace.Analyze's
// result for the selected trace.
func TestRunSummaryMatchesAnalyze(t *testing.T) {
	dir := t.TempDir()
	spans, sum := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "sum.json")
	evs := append(chain("r1", "a", 1_000), chain("r1", "b", 5_000)...)
	writeSpans(t, spans, evs...)
	var out bytes.Buffer
	if code := run([]string{"-summary", sum, spans}, &out, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, &out)
	}
	tr := disttrace.BuildTraces(evs)[0]
	want, err := json.MarshalIndent(disttrace.Analyze(tr), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Errorf("summary:\n%s\nwant:\n%s", got, want)
	}
}
