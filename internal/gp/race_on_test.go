//go:build race

package gp

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a quarter of what is put back, so the pooled scratch is reallocated
// now and then and the zero-allocation tests cannot hold.
const raceEnabled = true
