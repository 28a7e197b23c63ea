// Command bench is the fixture's end-to-end benchmark harness.
package main

import (
	"fixture/internal/benchmarks"
	"fixture/lib"
)

func main() {
	lib.BenchOnly()
	benchmarks.Run()
}
