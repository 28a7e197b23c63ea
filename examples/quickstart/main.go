// Quickstart: co-optimize a spatial accelerator for MobileNet on the edge
// scenario with full UNICO, then print the Pareto front and the
// representative design.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"unico"
)

func main() {
	// Build the open-source spatial-accelerator platform (paper Fig. 1)
	// under the edge power constraint (< 2 W) for one network.
	p, err := unico.OpenSourcePlatform(unico.Edge, "MobileNet")
	if err != nil {
		log.Fatal(err)
	}

	// Run UNICO. Small settings keep the example fast; the zero Config
	// would use the paper's defaults (N = 30, b_max = 300).
	res, err := unico.OptimizeContext(context.Background(), p, unico.Config{
		BatchSize:  12,
		Iterations: 6,
		BudgetMax:  80,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("search cost: %.2f simulated hours (%d budget units)\n",
		res.SimulatedHours, res.Evaluations)
	fmt.Printf("Pareto front: %d designs\n", len(res.Front))
	for _, d := range res.Front {
		fmt.Printf("  %-50s L=%8.3f ms  P=%7.1f mW  A=%5.2f mm²  R=%.3f\n",
			d.HW, d.LatencyMs, d.PowerMW, d.AreaMM2, d.Sensitivity)
	}
	fmt.Printf("\nrepresentative design: %s\n", res.Best.HW)
	fmt.Printf("  latency %.3f ms, power %.1f mW, area %.2f mm²\n",
		res.Best.LatencyMs, res.Best.PowerMW, res.Best.AreaMM2)
}
