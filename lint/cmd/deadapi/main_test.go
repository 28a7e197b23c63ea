package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFixtureCensus runs the census over a module with one exported
// function of each kind: no caller, a caller only in a _test.go file, an
// interface method nothing calls directly, a caller only in a main package,
// a caller only in bench/, and a caller only in internal/benchmarks, whose
// own function bench/ calls. Exactly the first two are dead, and they fail
// the run; the last two are listed as harness-only, and the harness's own
// function is neither.
func TestFixtureCensus(t *testing.T) {
	dir := filepath.Join("testdata", "fixture")
	c, err := takeCensus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, s := range c.dead {
		dead = append(dead, s.name)
	}
	if want := []string{"lib.NoCaller", "lib.TestOnly"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	var harness []string
	for _, s := range c.harnessOnly {
		harness = append(harness, s.name)
	}
	if want := []string{"lib.BenchOnly", "lib.HarnessOnly"}; !reflect.DeepEqual(harness, want) {
		t.Errorf("harness-only = %v, want %v", harness, want)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	want := "lib/lib.go:5: lib.NoCaller: no caller outside tests\nlib/lib.go:8: lib.TestOnly: no caller outside tests\n" +
		"harness-only (called only from bench/ or internal/benchmarks; for information):\n" +
		"  lib/lib.go:23: lib.BenchOnly\n  lib/lib.go:27: lib.HarnessOnly\n"
	if stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}
}
