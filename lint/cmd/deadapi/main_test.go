package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFixtureCensus runs the census over a module with one exported
// function of each kind: no caller, a caller only in a _test.go file, an
// interface method nothing calls directly, and a caller only in a main
// package. Exactly the first two are dead, and they fail the run.
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
	if len(c.benchOnly) != 0 {
		t.Errorf("bench-only = %v, want none", c.benchOnly)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	want := "lib/lib.go:5: lib.NoCaller: no caller outside tests\nlib/lib.go:8: lib.TestOnly: no caller outside tests\n"
	if stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}
}
