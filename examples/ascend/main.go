// Ascend-like industrial case study (paper Section 4.6 in miniature): UNICO
// searches the DaVinci-style core's buffer/bank/cube configuration for
// FSRCNN super-resolution using the cycle-level CAModel simulator, and the
// discovered core is compared against the expert default under the same
// schedule-search budget.
//
//	go run ./examples/ascend
package main

import (
	"context"
	"fmt"
	"log"

	"unico"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/workload"
)

func main() {
	const network = "FSRCNN-120x320"
	p, err := unico.AscendLikePlatform(network)
	if err != nil {
		log.Fatal(err)
	}

	// Paper settings are N=8, MaxIter=30, b_max=200; this example shrinks
	// them to stay interactive.
	res, err := unico.OptimizeContext(context.Background(), p, unico.Config{
		BatchSize:  6,
		Iterations: 5,
		BudgetMax:  40,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Best.HW == "" {
		log.Fatal("no feasible core found — increase Iterations")
	}

	// Evaluate the expert default core under the same schedule budget.
	def := hw.DefaultAscend()
	ap := platform.NewAscend([]workload.Workload{mustNet(network)}, mapsearch.DepthFirst)
	job := ap.NewJob(ap.AscendSpace().Encode(def), 5)
	job.Advance(40)
	defMet, ok := job.Best()
	if !ok {
		log.Fatal("default core has no feasible schedule")
	}

	fmt.Printf("network: %s (CAModel simulation, %d budget units)\n\n", network, res.Evaluations)
	fmt.Printf("expert default: %s\n", def)
	fmt.Printf("  latency %.4f ms, power %.1f mW\n\n", defMet.LatencyMs, defMet.PowerMW)
	fmt.Printf("UNICO-found:    %s\n", res.Best.HW)
	fmt.Printf("  latency %.4f ms, power %.1f mW\n\n", res.Best.LatencyMs, res.Best.PowerMW)
	fmt.Printf("latency saving: %.1f%%   power saving: %.1f%%   (search cost %.1f simulated hours)\n",
		(defMet.LatencyMs-res.Best.LatencyMs)/defMet.LatencyMs*100,
		(defMet.PowerMW-res.Best.PowerMW)/defMet.PowerMW*100,
		res.SimulatedHours)
}

func mustNet(name string) workload.Workload {
	w, err := workload.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return w
}
