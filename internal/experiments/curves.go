package experiments

import (
	"fmt"
	"io"
	"sort"

	"unico/internal/baselines"
	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/pareto"
	"unico/internal/workload"
)

// MethodCurve is one hypervolume-difference-versus-cost series of Figs. 7
// and 10.
type MethodCurve struct {
	Method string
	Hours  []float64
	HVDiff []float64
}

// Final returns the curve's final hypervolume difference (0 if empty).
func (c MethodCurve) Final() float64 {
	if len(c.HVDiff) == 0 {
		return 0
	}
	return c.HVDiff[len(c.HVDiff)-1]
}

// Mean returns the time-averaged hypervolume difference - the convergence
// regret over the whole budget. Smaller means the method reached good
// fronts sooner, the quantity the Fig. 7/10 comparisons rank methods by.
func (c MethodCurve) Mean() float64 {
	if len(c.HVDiff) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.HVDiff {
		sum += v
	}
	return sum / float64(len(c.HVDiff))
}

// CurveResult is one Fig. 7 panel (or the Fig. 10 ablation).
type CurveResult struct {
	Scenario hw.Scenario
	Curves   []MethodCurve
}

// methodSpec is one co-search method under trace comparison. The first
// method of a comparison (HASCO) sets the reference wall-clock budget; the
// others receive it as budgetHours and run until they have spent the same
// simulated time — the equal-cost reading of the paper's Fig. 7/10 x-axis.
type methodSpec struct {
	name string
	run  func(p core.Platform, seed int64, budgetHours float64) core.Result
}

// coreMethod is a comparison method that runs on the shared iteration
// engine: the preset's options at the equal-cost budget, through Scale.run
// as "<run>-seed<seed>".
func (s Scale) coreMethod(name, run string, preset func(batch, maxIter, bmax int, seed int64) core.Options, iters int) methodSpec {
	return methodSpec{name, func(p core.Platform, seed int64, budget float64) core.Result {
		opt := preset(s.Batch, iters, s.BMax, seed)
		opt.TimeBudgetHours = budget
		return s.run(fmt.Sprintf("%s-seed%d", run, seed), p, opt)
	}}
}

// RunHypervolumeCurves reproduces Fig. 7: hypervolume difference versus
// simulated wall-clock for HASCO, NSGA-II, MOBOHB and UNICO, averaged over
// the Table 1/2 networks of the given scenario.
func RunHypervolumeCurves(w io.Writer, sc hw.Scenario, s Scale) CurveResult {
	const manyIters = 400
	run := "fig7-" + sc.String() + "-"
	methods := []methodSpec{
		s.coreMethod("HASCO", run+"hasco", baselines.HASCOOptions, s.HASCOIter),
		{"NSGAII", func(p core.Platform, seed int64, budget float64) core.Result {
			return baselines.NSGAII(s.ctx(), p, baselines.NSGAIIOptions{
				Pop: s.NSGAPop, Generations: manyIters, BMax: s.BMax, Seed: seed,
				TimeBudgetHours: budget,
			})
		}},
		s.coreMethod("MOBOHB", run+"mobohb", baselines.MOBOHBOptions, manyIters),
		s.coreMethod("UNICO", run+"unico", core.UNICOOptions, manyIters),
	}
	nets := workload.Table12Networks()
	res := traceComparison(sc, nets, methods, s)
	printCurves(w, "Figure 7 ("+sc.String()+"): hypervolume difference vs search cost", res)
	return res
}

// RunAblation reproduces Fig. 10: HASCO vs SH+ChampionUpdate vs
// MSH+ChampionUpdate vs UNICO (MSH + HighFidelityUpdate + robustness) on
// {UNET, SRGAN, BERT, VIT}.
func RunAblation(w io.Writer, s Scale) CurveResult {
	const manyIters = 400
	methods := []methodSpec{
		s.coreMethod("HASCO", "fig10-hasco", baselines.HASCOOptions, s.HASCOIter),
		s.coreMethod("SH+Champion", "fig10-shchampion", baselines.SHChampionOptions, manyIters),
		s.coreMethod("MSH+Champion", "fig10-mshchampion", baselines.MSHChampionOptions, manyIters),
		s.coreMethod("UNICO", "fig10-unico", core.UNICOOptions, manyIters),
	}
	nets := []workload.Workload{workload.UNet(), workload.SRGAN(), workload.BERT(), workload.ViT()}
	res := traceComparison(hw.Edge, nets, methods, s)
	printCurves(w, "Figure 10: ablation (update rule x halving variant)", res)
	return res
}

// relImprove returns how much smaller (better) v is than base, in percent.
func relImprove(base, v float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - v) / base * 100
}

func meanOf(r CurveResult, method string) float64 {
	for _, c := range r.Curves {
		if c.Method == method {
			return c.Mean()
		}
	}
	return 0
}

// traceComparison runs every method on every network and averages the
// normalized hypervolume-difference trajectories on a common time grid.
func traceComparison(sc hw.Scenario, nets []workload.Workload, methods []methodSpec, s Scale) CurveResult {
	const gridN = 24
	sums := make([][]float64, len(methods))
	for i := range sums {
		sums[i] = make([]float64, gridN)
	}
	var maxHours float64
	allRuns := make([][]netRun, len(methods))
	for i := range allRuns {
		allRuns[i] = make([]netRun, len(nets))
	}
	refs := make([][]float64, len(nets))
	bests := make([]float64, len(nets))

	for ni, net := range nets {
		p := spatialPlatform(sc, net)
		var pool [][]float64
		results := make([]core.Result, len(methods))
		budget := 0.0
		for mi, m := range methods {
			results[mi] = m.run(p, s.Seed+int64(ni)*977+int64(mi)*13, budget)
			if mi == 0 {
				// The first method (HASCO) sets the equal-cost budget.
				budget = results[mi].Hours
			}
			for _, c := range results[mi].Front {
				pool = append(pool, c.Objectives(false))
			}
			if h := results[mi].Hours; h > maxHours {
				maxHours = h
			}
			allRuns[mi][ni] = netRun{trace: results[mi].Trace, fronts: results[mi].Fronts()}
		}
		refs[ni] = pareto.RefPoint(pool)
		bests[ni] = pareto.NormalizedHypervolume(pool, refs[ni])
	}
	if maxHours <= 0 {
		maxHours = 1
	}

	curves := make([]MethodCurve, len(methods))
	for mi, m := range methods {
		hours := make([]float64, gridN)
		diffs := make([]float64, gridN)
		for g := 0; g < gridN; g++ {
			t := maxHours * float64(g+1) / gridN
			hours[g] = t
			sum := 0.0
			for ni := range nets {
				hv := hvAt(allRuns[mi][ni], t, refs[ni])
				d := bests[ni] - hv
				if d < 0 {
					d = 0
				}
				sum += d
			}
			diffs[g] = sum / float64(len(nets))
		}
		curves[mi] = MethodCurve{Method: m.name, Hours: hours, HVDiff: diffs}
	}
	return CurveResult{Scenario: sc, Curves: curves}
}

// netRun is one method's run on one network: its trace and the front at each
// trace point (core.Result.Fronts).
type netRun struct {
	trace  []core.TracePoint
	fronts [][]core.Candidate
}

// hvAt returns the normalized hypervolume of the front at the latest trace
// point at or before time t (0 before the first).
// It scores the whole front: a score of a subset could fall as a method
// finds more designs, and the regret curves would rise.
func hvAt(r netRun, t float64, ref []float64) float64 {
	idx := sort.Search(len(r.trace), func(i int) bool { return r.trace[i].Hours > t }) - 1
	if idx < 0 {
		return 0
	}
	pts := make([][]float64, len(r.fronts[idx]))
	for i, c := range r.fronts[idx] {
		pts[i] = c.Objectives(false)
	}
	return pareto.NormalizedHypervolume(pts, ref)
}

// printCurves prints a Fig. 7 or Fig. 10 comparison: the curves on their
// common time grid, then each method's convergence regret against HASCO's.
func printCurves(w io.Writer, title string, res CurveResult) {
	if w == nil {
		return
	}
	fprintf(w, "=== %s ===\n", title)
	fprintf(w, "%10s", "hours")
	for _, c := range res.Curves {
		fprintf(w, " %13s", c.Method)
	}
	fprintf(w, "\n")
	if len(res.Curves) == 0 {
		return
	}
	for g := range res.Curves[0].Hours {
		fprintf(w, "%10.2f", res.Curves[0].Hours[g])
		for _, c := range res.Curves {
			fprintf(w, " %13.4f", c.HVDiff[g])
		}
		fprintf(w, "\n")
	}
	base := meanOf(res, "HASCO")
	for _, c := range res.Curves {
		fprintf(w, "  convergence regret %-13s mean %.5f final %.5f (vs HASCO %+.1f%%)\n",
			c.Method, c.Mean(), c.Final(), relImprove(base, c.Mean()))
	}
}
