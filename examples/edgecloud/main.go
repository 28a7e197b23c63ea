// Edge-vs-cloud method comparison: the Table 1/2 workflow of the paper on
// one network. UNICO, the HASCO-like baseline and NSGA-II each co-optimize
// a spatial accelerator for ResNet under the edge and cloud constraints;
// the example prints each method's representative design and search cost.
//
//	go run ./examples/edgecloud
package main

import (
	"context"
	"fmt"
	"log"

	"unico"
)

func main() {
	for _, sc := range []struct {
		name string
		s    unico.Scenario
	}{{"edge (power < 2 W)", unico.Edge}, {"cloud (power < 20 W)", unico.Cloud}} {
		fmt.Printf("=== %s ===\n", sc.name)
		p, err := unico.OpenSourcePlatform(sc.s, "ResNet")
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range []unico.Method{unico.MethodHASCO, unico.MethodNSGAII, unico.MethodUNICO} {
			iters := 4
			if m == unico.MethodUNICO {
				// UNICO's iterations are several times cheaper (batched,
				// early-stopped, parallel), so it affords more of them and
				// still finishes first — the cost asymmetry of Tables 1-2.
				iters = 12
			}
			res, err := unico.OptimizeContext(context.Background(), p, unico.Config{
				Method:     m,
				BatchSize:  10,
				Iterations: iters,
				BudgetMax:  60,
				Seed:       11,
			})
			if err != nil {
				log.Fatal(err)
			}
			if res.Best.HW == "" {
				fmt.Printf("%-8s no feasible design (cost %.2f h)\n", m, res.SimulatedHours)
				continue
			}
			fmt.Printf("%-8s L=%9.3f ms  P=%8.1f mW  A=%5.2f mm²  cost %.2f h  %s\n",
				m, res.Best.LatencyMs, res.Best.PowerMW, res.Best.AreaMM2,
				res.SimulatedHours, res.Best.HW)
		}
	}
}
