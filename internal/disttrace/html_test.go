package disttrace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a fixed trace pinned byte-for-byte in the waterfall
// golden: a direct eval, a routed eval with queue+forward, a backoff after
// a shed, and one incomplete span from a killed process.
func goldenEvents() []Event {
	return []Event{
		{Ev: "start", Trace: "golden-run", Span: "r1-it1", Kind: "iteration", Name: "iter 1", Proc: "client", TimeUS: 1_000_000},
		{Ev: "start", Trace: "golden-run", Span: "c1", Parent: "r1-it1", Kind: "client", Name: "/v1/ppa", Proc: "client", TimeUS: 1_000_100},
		{Ev: "start", Trace: "golden-run", Span: "a1", Parent: "c1", Kind: "attempt", Name: "/v1/ppa", Proc: "client", TimeUS: 1_000_150},
		{Ev: "start", Trace: "golden-run", Span: "s1", Parent: "a1", Kind: "shard", Name: "/v1/ppa", Proc: "shard", TimeUS: 1_000_400},
		{Ev: "start", Trace: "golden-run", Span: "e1", Parent: "s1", Kind: "engine", Name: "maestro", Proc: "shard", TimeUS: 1_000_450},
		{Ev: "end", Trace: "golden-run", Span: "e1", TimeUS: 1_020_000, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "s1", TimeUS: 1_020_100, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "a1", TimeUS: 1_020_400, Status: "shed"},
		{Ev: "start", Trace: "golden-run", Span: "b1", Parent: "c1", Kind: "backoff", Name: "/v1/ppa", Proc: "client", TimeUS: 1_020_500},
		{Ev: "end", Trace: "golden-run", Span: "b1", TimeUS: 1_070_500, Status: "ok"},
		{Ev: "start", Trace: "golden-run", Span: "a2", Parent: "c1", Kind: "attempt", Name: "/v1/ppa", Proc: "client", TimeUS: 1_070_600},
		{Ev: "start", Trace: "golden-run", Span: "q2", Parent: "a2", Kind: "queue", Name: "shard-2", Proc: "router", TimeUS: 1_070_700},
		{Ev: "end", Trace: "golden-run", Span: "q2", TimeUS: 1_080_000, Status: "ok"},
		{Ev: "start", Trace: "golden-run", Span: "f2", Parent: "a2", Kind: "forward", Name: "/v1/ppa", Proc: "router", TimeUS: 1_080_000},
		{Ev: "start", Trace: "golden-run", Span: "s2", Parent: "f2", Kind: "shard", Name: "/v1/ppa", Proc: "shard", TimeUS: 1_080_200},
		{Ev: "start", Trace: "golden-run", Span: "e2", Parent: "s2", Kind: "engine", Name: "maestro", Proc: "shard", TimeUS: 1_080_250},
		{Ev: "end", Trace: "golden-run", Span: "e2", TimeUS: 1_110_000, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "s2", TimeUS: 1_110_100, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "f2", TimeUS: 1_110_300, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "a2", TimeUS: 1_110_500, Status: "ok"},
		{Ev: "end", Trace: "golden-run", Span: "c1", TimeUS: 1_110_600, Status: "ok", Attrs: map[string]string{"attempts": "2"}},
		// A span whose process was killed mid-eval: start only.
		{Ev: "start", Trace: "golden-run", Span: "c2", Parent: "r1-it1", Kind: "client", Name: "/v1/jobs/advance", Proc: "client", TimeUS: 1_111_000},
		{Ev: "end", Trace: "golden-run", Span: "r1-it1", TimeUS: 1_120_000, Status: "ok"},
	}
}

func TestWaterfallGolden(t *testing.T) {
	tr := BuildTraces(goldenEvents())[0]
	got := WaterfallHTML(tr, Analyze(tr))
	path := filepath.Join("testdata", "waterfall_golden.html")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/disttrace -run Golden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("rendered trace section differs from %s (regenerate with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

// TestWaterfallDeterministic guards the golden against map-order leaks: two
// renders of the same trace must be byte-identical.
func TestWaterfallDeterministic(t *testing.T) {
	a := BuildTraces(goldenEvents())[0]
	b := BuildTraces(goldenEvents())[0]
	if WaterfallHTML(a, Analyze(a)) != WaterfallHTML(b, Analyze(b)) {
		t.Fatal("two renders of the same trace differ")
	}
}
