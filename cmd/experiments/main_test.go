package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"unico/internal/flightrec"
)

// TestFig8GoldenWithAndWithoutHooks drives the built binary — the only place
// the run-scoped plumbing (progress and flight directory, both values on
// experiments.Scale) is wired from flags. Observation must never
// reach the results: stdout is byte-identical to the golden captured before
// the hooks were values, with none of them on and with all of them on.
func TestFig8GoldenWithAndWithoutHooks(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fig8_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-run", "fig8", "-scale", "small"}, args...)...)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments %v: %v\n%s", args, err, e.String())
		}
		return o.String(), e.String()
	}

	if stdout, _ := run(); stdout != string(golden) {
		t.Errorf("bare run diverged from the golden:\n%s", stdout)
	}

	flights := filepath.Join(dir, "flights")
	stdout, stderr := run("-progress", "-flight-record", flights)
	if stdout != string(golden) {
		t.Errorf("hooked run diverged from the golden:\n%s", stdout)
	}
	const iters = 8 // fig8 floors MaxIter at 8
	if n := len(regexp.MustCompile(`(?m)^iter +\d+ `).FindAllString(stderr, -1)); n != iters {
		t.Errorf("%d progress lines on stderr, want %d", n, iters)
	}
	records, _ := filepath.Glob(filepath.Join(flights, "*"))
	if len(records) != 1 || filepath.Base(records[0]) != "fig8-unico.run.jsonl" {
		t.Fatalf("flight records %v, want one fig8-unico.run.jsonl", records)
	}
	d, _, err := flightrec.Load(records[0])
	if err != nil || len(d.Iters) != iters || d.Summary == nil {
		t.Fatalf("flight record: %v, %d iterations, summary %v", err, len(d.Iters), d.Summary)
	}
	if !strings.HasPrefix(d.Header.Method, "fig8") {
		t.Errorf("flight record header %+v: want the run's name as its method", d.Header)
	}
}
