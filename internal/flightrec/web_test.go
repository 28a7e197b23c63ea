package flightrec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenData is a fixed run whose rendering is pinned byte-for-byte: the
// renderer is deterministic (no wall-clock, fixed float formatting), so any
// change to the markup or the SVG math shows up as a golden diff.
func goldenData() RunData {
	d := RunData{Header: testHeader()}
	for i := 1; i <= 4; i++ {
		it := testIteration(i)
		it.Type = TypeIteration
		if i == 2 {
			it.UUL = 1.25 // first surrogate update: UUL becomes finite
		}
		d.Iters = append(d.Iters, it)
	}
	d.Summary = &Summary{Type: TypeSummary}
	return d
}

func TestReportPageGolden(t *testing.T) {
	got := Page("unico run report — golden", "", ReportBody(goldenData()))
	path := filepath.Join("testdata", "report_golden.html")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/flightrec -run Golden -update`)", err)
	}
	if string(got) != string(want) {
		t.Errorf("rendered report differs from %s (regenerate with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

// TestArtifactWithCacheCountersStillLoads: testdata/cached_before_pr21.run.jsonl
// was written by `unico -cache -flight-record` before the evaluation cache
// left the run path; its iteration and summary lines carry cache_hits and
// cache_misses, which nothing reads any more. It must load whole and render.
func TestArtifactWithCacheCountersStillLoads(t *testing.T) {
	path := filepath.Join("testdata", "cached_before_pr21.run.jsonl")
	if raw, err := os.ReadFile(path); err != nil || !strings.Contains(string(raw), `"cache_hits":`) {
		t.Fatalf("fixture lost its cache counters (%v)", err)
	}
	d, skipped, err := Load(path)
	if err != nil || skipped != 0 {
		t.Fatalf("Load: %v, %d lines skipped", err, skipped)
	}
	if len(d.Iters) != 2 || d.Iters[1].Evals != 32 || len(d.Iters[1].Front) != 4 {
		t.Errorf("iterations mangled: %+v", d.Iters)
	}
	if d.Summary == nil {
		t.Error("summary dropped")
	}
	html := ReportBody(*d)
	if !strings.Contains(html, "finished after 2 iterations") || strings.Contains(html, "cache") {
		t.Errorf("report of the old artifact:\n%s", html)
	}
}

func TestHypervolumeSVGShape(t *testing.T) {
	svg := HypervolumeSVG(goldenData().Iters)
	for _, want := range []string{"<svg", "polyline", "hypervolume", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("hypervolume SVG missing %q", want)
		}
	}
	if empty := HypervolumeSVG(nil); !strings.Contains(empty, "no data") {
		t.Errorf("empty-run SVG should carry a no-data note, got %q", empty)
	}
}

func TestScatterSVGShape(t *testing.T) {
	front := [][]float64{{1, 100, 2}, {2, 50, 1}, {3, 25, 0.5}}
	svg := ScatterSVG(front, 0, 1)
	if strings.Count(svg, "<circle") != len(front) {
		t.Errorf("scatter has %d points, want %d:\n%s", strings.Count(svg, "<circle"), len(front), svg)
	}
	if !strings.Contains(svg, "latency ms") || !strings.Contains(svg, "power mW") {
		t.Errorf("axis labels missing:\n%s", svg)
	}
	// A point with a non-finite coordinate must not emit NaN into the markup.
	bad := ScatterSVG([][]float64{{math.NaN(), 1, 1}}, 0, 1)
	if strings.Contains(bad, "NaN") {
		t.Errorf("NaN leaked into SVG coordinates:\n%s", bad)
	}
}

func TestRungTableNewestFirst(t *testing.T) {
	html := RungTableHTML(goldenData().Iters, 2)
	i4 := strings.Index(html, "<td>4</td>")
	i3 := strings.Index(html, "<td>3</td>")
	if i4 < 0 || i3 < 0 || i4 > i3 {
		t.Errorf("rows not newest-first (idx4=%d idx3=%d):\n%s", i4, i3, html)
	}
	if strings.Contains(html, "<td>2</td>") {
		t.Errorf("maxRows not applied:\n%s", html)
	}
	if !strings.Contains(html, "6 → 3 → 1") {
		t.Errorf("survivor curve missing:\n%s", html)
	}
}

func BenchmarkReportPage(b *testing.B) {
	d := goldenData()
	for i := 5; i <= 100; i++ {
		it := testIteration(i)
		it.Type = TypeIteration
		d.Iters = append(d.Iters, it)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := Page("bench", "", ReportBody(d)); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

func ExampleReportBody() {
	d := RunData{Header: Header{RunID: "ex", Method: "UNICO"}}
	html := Page("example", "", ReportBody(d))
	fmt.Println(strings.Contains(string(html), "waiting for the first completed iteration"))
	// Output: true
}
