package experiments

import (
	"fmt"
	"io"

	"unico/internal/baselines"
	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// MethodRow is one (method, network) cell of Tables 1 and 2: the PPA of the
// min-Euclidean-distance Pareto point and the simulated search cost.
type MethodRow struct {
	Network   string
	Method    string
	Metrics   ppa.Metrics
	CostHours float64
	FrontSize int
	HWDesc    string
}

// TableResult is one full Table 1 or Table 2.
type TableResult struct {
	Scenario hw.Scenario
	Rows     []MethodRow
}

// RunEdgeCloudTable reproduces Table 1 (Edge, power < 2 W) or Table 2
// (Cloud, power < 20 W): for each network, HASCO, NSGA-II and UNICO each
// co-optimize from scratch, and the min-Euclidean-distance representative of
// the resulting Pareto front is reported with the simulated search cost.
func RunEdgeCloudTable(w io.Writer, sc hw.Scenario, s Scale) TableResult {
	res := TableResult{Scenario: sc}
	fprintf(w, "=== Table (%s device, power < %.0f W): HASCO vs NSGA-II vs UNICO ===\n",
		sc, sc.PowerCapMW()/1000)
	fprintf(w, "%-12s %-8s %14s %12s %10s %9s  %s\n",
		"Network", "Method", "Latency(ms)", "Power(mW)", "Area(mm2)", "Cost(h)", "HW")
	for ni, net := range workload.Table12Networks() {
		seed := s.Seed + int64(ni)*101
		p := spatialPlatform(sc, net)

		uIter := s.UNICOIter
		if uIter <= 0 {
			uIter = 3 * s.MaxIter
		}
		runs := []struct {
			name string
			res  core.Result
		}{
			{"HASCO", s.run(fmt.Sprintf("table-%s-%s-hasco", sc, net.Name), p,
				baselines.HASCOOptions(s.Batch, s.HASCOIter, s.BMax, seed))},
			{"NSGAII", baselines.NSGAII(s.ctx(), p, baselines.NSGAIIOptions{
				Pop: s.NSGAPop, Generations: s.NSGAGen, BMax: s.BMax, Seed: seed + 1,
			})},
			{"UNICO", s.run(fmt.Sprintf("table-%s-%s-unico", sc, net.Name), p,
				core.UNICOOptions(s.Batch, uIter, s.BMax, seed+2))},
		}

		// A shared normalization pool over the three fronts keeps the
		// min-Euclid representative selection comparable across methods.
		var pool [][]float64
		for _, mr := range runs {
			for _, c := range mr.res.Front {
				pool = append(pool, c.Objectives(false))
			}
		}
		for _, mr := range runs {
			row := MethodRow{Network: net.Name, Method: mr.name, CostHours: mr.res.Hours,
				FrontSize: len(mr.res.Front)}
			if rep, ok := representativeIn(mr.res.Front, pool); ok {
				row.Metrics = rep.Metrics
				row.HWDesc = p.Describe(rep.X)
			}
			res.Rows = append(res.Rows, row)
			fprintf(w, "%-12s %-8s %14.6g %12.5g %10.3g %9.2f  %s\n",
				row.Network, row.Method, row.Metrics.LatencyMs, row.Metrics.PowerMW,
				row.Metrics.AreaMM2, row.CostHours, row.HWDesc)
		}
	}
	return res
}

// representativeIn picks the front candidate closest to the ideal corner of
// the shared pool (range-normalized), so representative selection is
// comparable across the methods contributing to the pool.
func representativeIn(front []core.Candidate, pool [][]float64) (core.Candidate, bool) {
	if len(front) == 0 {
		return core.Candidate{}, false
	}
	if len(pool) == 0 {
		return front[0], true
	}
	d := len(pool[0])
	lo := append([]float64(nil), pool[0]...)
	hi := append([]float64(nil), pool[0]...)
	for _, p := range pool {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	dist := func(p []float64) float64 {
		sum := 0.0
		for j := 0; j < d; j++ {
			span := hi[j] - lo[j]
			if span <= 0 {
				continue
			}
			nv := (p[j] - lo[j]) / span
			sum += nv * nv
		}
		return sum
	}
	best, bestD := 0, dist(front[0].Objectives(false))
	for i := 1; i < len(front); i++ {
		if dd := dist(front[i].Objectives(false)); dd < bestD {
			best, bestD = i, dd
		}
	}
	return front[best], true
}
