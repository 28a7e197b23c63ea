// Distributed co-optimization (paper Fig. 6): this example starts three
// in-process worker nodes — each serving the PPA REST API and hosting
// mapping-search jobs — and drives a full UNICO run from the master with
// every software-mapping job executing over HTTP on the worker pool.
//
// In a real deployment the workers are `cmd/ppaserver` processes on slave
// machines; httptest servers here make the example self-contained.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/hw"
)

func main() {
	ctx := context.Background()
	// Start three worker nodes (stand-ins for slave machines).
	var workers []*dist.Client
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(dist.NewServer().Handler())
		defer srv.Close()
		client := dist.NewClient(srv.URL, srv.Client())
		if !client.HealthyContext(ctx) {
			log.Fatalf("worker %d failed its health check", i)
		}
		workers = append(workers, client)
		fmt.Printf("worker %d: %s\n", i, srv.URL)
	}

	// The master-side platform fans mapping-search jobs across the pool.
	p, err := dist.NewRemoteSpatialPlatform(workers, hw.Edge, []string{"MobileNet"})
	if err != nil {
		log.Fatal(err)
	}

	opt := core.UNICOOptions(9, 4, 50, 21)
	opt.Workers = len(workers)
	res := core.RunContext(ctx, p, opt)

	fmt.Printf("\ndistributed run: %d candidates evaluated, %.2f simulated hours\n",
		len(res.All), res.Hours)
	fmt.Printf("Pareto front: %d designs\n", len(res.Front))
	if rep, ok := core.Representative(res.Front); ok {
		fmt.Printf("representative: %s  %s\n", p.Describe(rep.X), rep.Metrics)
	}
}
