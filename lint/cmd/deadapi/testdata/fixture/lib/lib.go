// Package lib holds one exported function of each kind the census sorts.
package lib

// NoCaller is called from nowhere: reported.
func NoCaller() {}

// TestOnly is called only from lib_test.go: reported.
func TestOnly() {}

// MainOnly is called only from a main package: a caller, so not reported.
func MainOnly() {}

// Namer is implemented by T.
type Namer interface{ Name() string }

// T implements Namer.
type T struct{}

// Name implements Namer, so it is not reported though nothing calls it.
func (T) Name() string { return "t" }

// BenchOnly is called only from bench/: listed as harness-only.
func BenchOnly() {}

// HarnessOnly is called only from internal/benchmarks: listed as
// harness-only.
func HarnessOnly() {}
