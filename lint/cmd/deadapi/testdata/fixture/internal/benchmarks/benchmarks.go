// Package benchmarks is the fixture's kernel benchmark harness.
package benchmarks

import "fixture/lib"

// Run is the harness's own API, called only from bench/: neither dead nor
// listed.
func Run() { lib.HarnessOnly() }
