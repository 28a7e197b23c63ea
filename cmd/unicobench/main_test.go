package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unico/internal/benchmarks"
)

func writeBench(t *testing.T, dir, name string, f File) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func baseFile() File {
	return File{
		Schema: Schema,
		Env:    Env{GoVersion: "go1.22", Revision: "abc123"},
		Benchmarks: []Result{
			{Name: "GPFitPredict", Runs: 100, NsPerOp: 1000},
			{Name: "MappingSearchUnit", Runs: 100, NsPerOp: 500},
		},
	}
}

// TestDiffInjectedSlowdownFailsGate is the acceptance check for the
// regression gate: a 2x slowdown on one benchmark must exit non-zero.
func TestDiffInjectedSlowdownFailsGate(t *testing.T) {
	dir := t.TempDir()
	old := baseFile()
	cur := baseFile()
	cur.Benchmarks[0].NsPerOp = 2000 // injected 2x slowdown
	oldP := writeBench(t, dir, "old.json", old)
	curP := writeBench(t, dir, "cur.json", cur)
	if got := diffFiles(oldP, curP, 0.30, os.Stdout, os.Stderr); got != 1 {
		t.Fatalf("2x slowdown at tol 0.30: exit = %d, want 1", got)
	}
	// The same pair passes once the tolerance admits a 2x ratio.
	if got := diffFiles(oldP, curP, 1.5, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("2x slowdown at tol 1.5: exit = %d, want 0", got)
	}
}

func TestDiffWithinToleranceExitsZero(t *testing.T) {
	dir := t.TempDir()
	old := baseFile()
	cur := baseFile()
	cur.Benchmarks[0].NsPerOp = 1200 // +20% < 30% tolerance
	oldP := writeBench(t, dir, "old.json", old)
	curP := writeBench(t, dir, "cur.json", cur)
	if got := diffFiles(oldP, curP, 0.30, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("+20%% at tol 0.30: exit = %d, want 0", got)
	}
}

// TestDiffReadsRecordsWithoutBytes keeps a record written before
// bytes_per_op was recorded loadable and comparable on ns/op.
func TestDiffReadsRecordsWithoutBytes(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	rec := `{"schema":"` + Schema + `","env":{"go_version":"go1.22","revision":"abc123"},"benchmarks":[` +
		`{"name":"GPFitPredict","runs":100,"ns_per_op":1000,"allocs_per_op":3},` +
		`{"name":"MappingSearchUnit","runs":100,"ns_per_op":500,"allocs_per_op":1}]}`
	if err := os.WriteFile(old, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := loadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 || f.Benchmarks[0].AllocsPerOp != 3 || f.Benchmarks[0].BytesPerOp != 0 {
		t.Fatalf("loaded %+v", f.Benchmarks)
	}
	cur := baseFile()
	cur.Benchmarks[0].BytesPerOp = 4096
	if got := diffFiles(old, writeBench(t, dir, "cur.json", cur), 0.30, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("diff against a record without bytes: exit = %d, want 0", got)
	}
	cur.Benchmarks[1].NsPerOp = 1000
	if got := diffFiles(old, writeBench(t, dir, "slow.json", cur), 0.30, os.Stdout, os.Stderr); got != 1 {
		t.Fatalf("2x slowdown against a record without bytes: exit = %d, want 1", got)
	}
}

func TestDiffMissingBenchmarkIsRegression(t *testing.T) {
	dir := t.TempDir()
	old := baseFile()
	cur := baseFile()
	cur.Benchmarks = cur.Benchmarks[:1] // MappingSearchUnit disappeared
	oldP := writeBench(t, dir, "old.json", old)
	curP := writeBench(t, dir, "cur.json", cur)
	if got := diffFiles(oldP, curP, 0.30, os.Stdout, os.Stderr); got != 1 {
		t.Fatalf("missing benchmark: exit = %d, want 1", got)
	}
}

func TestDiffMalformedInputsExitTwo(t *testing.T) {
	dir := t.TempDir()
	good := writeBench(t, dir, "good.json", baseFile())

	notJSON := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(notJSON, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	badSchema := baseFile()
	badSchema.Schema = "unico-bench/v99"
	badSchemaP := writeBench(t, dir, "schema.json", badSchema)
	empty := baseFile()
	empty.Benchmarks = nil
	emptyP := writeBench(t, dir, "empty.json", empty)
	disjoint := baseFile()
	disjoint.Benchmarks = []Result{{Name: "SomethingElse", NsPerOp: 1}}
	disjointP := writeBench(t, dir, "disjoint.json", disjoint)

	cases := []struct {
		name     string
		old, cur string
	}{
		{"unparseable old", notJSON, good},
		{"unparseable new", good, notJSON},
		{"missing file", filepath.Join(dir, "absent.json"), good},
		{"wrong schema", badSchemaP, good},
		{"no benchmarks", emptyP, good},
		{"disjoint names", disjointP, good},
	}
	for _, tc := range cases {
		if got := diffFiles(tc.old, tc.cur, 0.30, os.Stdout, os.Stderr); got != 2 {
			t.Errorf("%s: exit = %d, want 2", tc.name, got)
		}
	}
}

// TestRunRecordsBenchAndPhases runs the two fastest canonical benches for a
// single iteration and checks the recorded file has results, an environment
// fingerprint, and a phase breakdown from the instrumented hot paths.
func TestRunRecordsBenchAndPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	code := run([]string{"-run", "^(GPFitPredict|MappingSearchUnit)$",
		"-benchtime", "1x", "-out", out}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("run exit = %d, want 0", code)
	}
	f, err := loadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("recorded %d benchmarks, want 2", len(f.Benchmarks))
	}
	for _, r := range f.Benchmarks {
		if r.NsPerOp <= 0 || r.Runs <= 0 || r.BytesPerOp <= 0 {
			t.Errorf("%s: NsPerOp=%v Runs=%d BytesPerOp=%d, want positive", r.Name, r.NsPerOp, r.Runs, r.BytesPerOp)
		}
	}
	if f.Env.GoVersion == "" || f.Env.Revision == "" || f.Env.NumCPU <= 0 {
		t.Errorf("env fingerprint incomplete: %+v", f.Env)
	}
	var sawGP bool
	for _, p := range f.Phases {
		if p.Path == "gp.fit_auto" && p.Count > 0 {
			sawGP = true
		}
	}
	if !sawGP {
		t.Errorf("phase breakdown missing gp.fit_auto: %+v", f.Phases)
	}
	// A self-diff of the fresh record must pass the gate.
	if got := diffFiles(out, out, 0.30, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("self-diff exit = %d, want 0", got)
	}
}

// TestBaselineRecordsThePinnedSet keeps the committed baseline in step with
// the one definition of the pinned set: a case pinned without a baseline
// entry would never be gated, and an entry for an unpinned case would fail
// the gate as "vanished".
func TestBaselineRecordsThePinnedSet(t *testing.T) {
	f, err := loadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, r := range f.Benchmarks {
		got = append(got, r.Name)
	}
	for _, c := range benchmarks.Pinned(context.Background()) {
		want = append(want, c.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCH_baseline.json records %v, benchmarks.Pinned is %v", got, want)
	}
}

func TestListAndBadFlags(t *testing.T) {
	if got := run([]string{"-pinned", "-list"}, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("-pinned -list exit = %d, want 0", got)
	}

	if got := run([]string{"-list"}, os.Stdout, os.Stderr); got != 0 {
		t.Fatalf("-list exit = %d, want 0", got)
	}
	if got := run([]string{"-run", "("}, os.Stdout, os.Stderr); got != 2 {
		t.Fatalf("bad regexp exit = %d, want 2", got)
	}
	if got := run([]string{"-diff", "only-one.json"}, os.Stdout, os.Stderr); got != 2 {
		t.Fatalf("-diff with one arg exit = %d, want 2", got)
	}
}

// TestWriteFileReplacesInPlaceRecord: the record is written beside its
// destination and renamed over it (it used to be created in place, so a
// crash mid-write left a truncated file for -diff to choke on). What can be
// seen from here: the old record is replaced whole and nothing else is left
// in the directory.
func TestWriteFileReplacesInPlaceRecord(t *testing.T) {
	dir := t.TempDir()
	path := writeBench(t, dir, "BENCH_x.json", baseFile())
	next := baseFile()
	next.Benchmarks = next.Benchmarks[:1]
	if err := writeFile(path, next); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil || len(got.Benchmarks) != 1 {
		t.Fatalf("loadFile = %+v, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d files, want only the record", len(entries))
	}
	if err := writeFile(filepath.Join(dir, "missing", "BENCH_y.json"), next); err == nil {
		t.Error("writeFile into a missing directory succeeded")
	}
}
