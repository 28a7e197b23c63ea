// Robustness study (the paper's Sections 4.3-4.4 in miniature): co-optimize
// on a training set of networks with and without the sensitivity objective
// R, then validate both representative designs on networks the search never
// saw. The robustness-aware design should generalize better.
//
//	go run ./examples/robustness
package main

import (
	"context"
	"fmt"
	"log"

	"unico"
)

func main() {
	training := []string{"UNet", "SRGAN", "Bert"}
	validation := []string{"ResNet", "VIT", "MobileNet"}

	p, err := unico.OpenSourcePlatform(unico.Edge, training...)
	if err != nil {
		log.Fatal(err)
	}

	cfg := unico.Config{BatchSize: 10, Iterations: 6, BudgetMax: 60, Seed: 3}

	fmt.Println("co-optimizing WITH the robustness objective R ...")
	withR, err := unico.OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("co-optimizing WITHOUT the robustness objective R ...")
	cfgNoR := cfg
	cfgNoR.DisableRobustness = true
	cfgNoR.Seed = 4
	withoutR, err := unico.OptimizeContext(context.Background(), p, cfgNoR)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nwith R:    %s (R=%.3f)\n", withR.Best.HW, withR.Best.Sensitivity)
	fmt.Printf("without R: %s (R=%.3f)\n\n", withoutR.Best.HW, withoutR.Best.Sensitivity)

	fmt.Printf("%-12s %18s %18s\n", "validation", "with-R latency", "without-R latency")
	var sumR, sumNoR float64
	for _, net := range validation {
		vp, err := unico.OpenSourcePlatform(unico.Edge, net)
		if err != nil {
			log.Fatal(err)
		}
		a, errA := unico.EvaluateOn(context.Background(), vp, withR.Best, 60, 101)
		b, errB := unico.EvaluateOn(context.Background(), vp, withoutR.Best, 60, 102)
		if errA != nil || errB != nil {
			fmt.Printf("%-12s infeasible (%v / %v)\n", net, errA, errB)
			continue
		}
		sumR += a.LatencyMs
		sumNoR += b.LatencyMs
		fmt.Printf("%-12s %15.3f ms %15.3f ms\n", net, a.LatencyMs, b.LatencyMs)
	}
	if sumNoR > 0 {
		fmt.Printf("\naverage unseen-network latency: with R %.3f ms, without R %.3f ms (%.1f%% difference)\n",
			sumR/3, sumNoR/3, (sumNoR-sumR)/sumNoR*100)
	}
}
