// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus micro-benchmarks
// of the performance-critical substrates.
//
// The table/figure benchmarks run the corresponding experiment pipeline at
// SmallScale; cmd/experiments runs the same runners at the paper's scale.
// Benchmark output reports the comparative statistics (search-cost speedup,
// hypervolume differences, savings) as custom metrics.
package unico

import (
	"context"
	"math/rand"
	"testing"

	"unico/internal/benchmarks"
	"unico/internal/experiments"
	"unico/internal/hw"
	"unico/internal/pareto"
)

// BenchmarkTable1_Edge regenerates Table 1: HASCO vs NSGA-II vs UNICO on the
// seven networks under the edge power constraint (< 2 W).
func BenchmarkTable1_Edge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunEdgeCloudTable(nil, hw.Edge, experiments.SmallScale())
		reportSpeedup(b, res)
	}
}

// BenchmarkTable2_Cloud regenerates Table 2: the same comparison under the
// cloud power constraint (< 20 W).
func BenchmarkTable2_Cloud(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunEdgeCloudTable(nil, hw.Cloud, experiments.SmallScale())
		reportSpeedup(b, res)
	}
}

func reportSpeedup(b *testing.B, res experiments.TableResult) {
	sum, n := 0.0, 0
	for _, s := range speedupSummary(res) {
		sum += s
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "UNICO-speedup-x")
	}
}

// speedupSummary reports, per network, UNICO's search-cost advantage over
// the slowest baseline — the headline "up to 4× faster" claim.
func speedupSummary(t experiments.TableResult) map[string]float64 {
	cost := map[string]map[string]float64{}
	for _, r := range t.Rows {
		if cost[r.Network] == nil {
			cost[r.Network] = map[string]float64{}
		}
		cost[r.Network][r.Method] = r.CostHours
	}
	out := map[string]float64{}
	for net, byMethod := range cost {
		u := byMethod["UNICO"]
		h := byMethod["HASCO"]
		if u > 0 && h > 0 {
			out[net] = h / u
		}
	}
	return out
}

// BenchmarkFigure7_HypervolumeCurves regenerates Fig. 7: hypervolume
// difference versus simulated search cost for HASCO, NSGA-II, MOBOHB and
// UNICO (edge panel; the cloud panel is the same pipeline under hw.Cloud).
func BenchmarkFigure7_HypervolumeCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunHypervolumeCurves(nil, hw.Edge, experiments.SmallScale())
		for _, c := range res.Curves {
			b.ReportMetric(c.Final(), "final-HVdiff-"+c.Method)
		}
	}
}

// BenchmarkFigure8_RobustnessIndicator regenerates Fig. 8: PPA-comparable
// Pareto pairs with different sensitivity R, validated on unseen networks.
func BenchmarkFigure8_RobustnessIndicator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRobustnessIndicator(nil, experiments.SmallScale())
		wins := 0
		for _, p := range res.Pairs {
			if p.RobustWinsAvg {
				wins++
			}
		}
		if len(res.Pairs) > 0 {
			b.ReportMetric(float64(wins)/float64(len(res.Pairs)), "robust-wins-frac")
		}
	}
}

// BenchmarkFigure9_Generalization regenerates Fig. 9: UNICO-vs-HASCO
// min-Euclid gain on eight unseen DNNs after multi-workload co-optimization.
func BenchmarkFigure9_Generalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunGeneralization(nil, experiments.SmallScale())
		b.ReportMetric(res.AvgImprovementPct, "UNICO-gain-%")
	}
}

// BenchmarkFigure10_Ablation regenerates Fig. 10: HASCO vs SH+Champion vs
// MSH+Champion vs full UNICO hypervolume convergence.
func BenchmarkFigure10_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblation(nil, experiments.SmallScale())
		for _, c := range res.Curves {
			b.ReportMetric(c.Final(), "final-HVdiff-"+c.Method)
		}
	}
}

// BenchmarkFigure11_Ascend regenerates Fig. 11: UNICO-found Ascend-like
// cores versus the expert default, evaluated by the cycle-level CAModel.
func BenchmarkFigure11_Ascend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAscend(nil, experiments.SmallScale())
		b.ReportMetric(res.AvgPowerSavePct, "avg-power-save-%")
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkMaestroEvaluate and BenchmarkCAModelEvaluate measure one PPA
// evaluation on each engine, the innermost operation of the whole co-search.
// The bodies live in internal/benchmarks so cmd/unicobench runs the
// identical workloads.
func BenchmarkMaestroEvaluate(b *testing.B) {
	benchmarks.MaestroEvaluate(b)
}

func BenchmarkCAModelEvaluate(b *testing.B) {
	benchmarks.CAModelEvaluate(b)
}

// BenchmarkMappingSearchUnit measures one network-level budget unit of the
// FlexTensor-like search on MobileNet. The body lives in
// internal/benchmarks so cmd/unicobench runs the identical workload.
func BenchmarkMappingSearchUnit(b *testing.B) {
	benchmarks.MappingSearchUnit(b)
}

// BenchmarkAscendNewJob and BenchmarkSpatialNewJob measure building one
// candidate's mapping search (job construction, PERFORMANCE.md §1). The
// bodies live in internal/benchmarks so cmd/unicobench runs the identical
// workloads.
func BenchmarkAscendNewJob(b *testing.B) {
	benchmarks.AscendNewJob(b)
}

func BenchmarkSpatialNewJob(b *testing.B) {
	benchmarks.SpatialNewJob(b)
}

// BenchmarkSpatialJobFirstUnit measures a candidate's job through its first
// searching unit, where its layers' generators make their first draws.
func BenchmarkSpatialJobFirstUnit(b *testing.B) {
	benchmarks.SpatialJobFirstUnit(b)
}

// BenchmarkGPFitPredict measures surrogate refitting plus a prediction at
// the training sizes MOBO reaches. The body lives in internal/benchmarks
// so cmd/unicobench runs the identical workload.
func BenchmarkGPFitPredict(b *testing.B) {
	benchmarks.GPFitPredict(b)
}

// BenchmarkAcquisitionPool measures one acquisition maximization at the
// paper's size (256-candidate pool, three refinement chains, four
// objectives, n = 150). The body lives in internal/benchmarks so
// cmd/unicobench runs the identical workload.
func BenchmarkAcquisitionPool(b *testing.B) {
	benchmarks.AcquisitionPool(b)
}

// BenchmarkAcquisitionEdge measures one acquisition maximization on the
// surrogates five iterations of an edge_paper-shaped search leave. The body
// lives in internal/benchmarks so cmd/unicobench runs the identical workload.
func BenchmarkAcquisitionEdge(b *testing.B) {
	benchmarks.AcquisitionEdge(context.Background(), b)
}

// BenchmarkSurrogateRefit measures one warm refit of four objectives'
// surrogates on a full training window (n = 150). The body lives in
// internal/benchmarks so cmd/unicobench runs the identical workload.
func BenchmarkSurrogateRefit(b *testing.B) {
	benchmarks.SurrogateRefit(b)
}

// BenchmarkCholeskyBlocked measures the blocked factorization on a
// 256×256 SPD matrix. The body lives in internal/benchmarks so
// cmd/unicobench runs the identical workload.
func BenchmarkCholeskyBlocked(b *testing.B) {
	benchmarks.CholeskyBlocked(b)
}

// BenchmarkRank1Update measures the O(n²) rank-1 Cholesky update that the
// incremental-GP path uses in place of refactorization. The body lives in
// internal/benchmarks so cmd/unicobench runs the identical workload.
func BenchmarkRank1Update(b *testing.B) {
	benchmarks.Rank1Update(b)
}

// BenchmarkEndToEndMicro runs the Table-1-style micro co-search of
// internal/benchmarks end to end — the bench whose phase breakdown
// cmd/unicobench records in BENCH_*.json.
func BenchmarkEndToEndMicro(b *testing.B) {
	benchmarks.EndToEndMicro(context.Background(), b)
}

// BenchmarkHypervolume3D measures the exact WFG hypervolume on a
// co-search-sized 3D front.
func BenchmarkHypervolume3D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var pts [][]float64
	for len(pts) < 24 {
		pts = append(pts, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	front := pareto.FrontPoints(pts)
	ref := []float64{1.1, 1.1, 1.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(front, ref)
	}
}

// BenchmarkNonDominatedSort measures NSGA-II's sorting on a generation-sized
// population.
func BenchmarkNonDominatedSort(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 60)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.NonDominatedSort(pts)
	}
}
