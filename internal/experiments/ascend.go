package experiments

import (
	"io"
	"math"

	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// AscendRow is one network of the Fig. 11 study.
type AscendRow struct {
	Network string
	// Default and Found are the PPA of the expert default core and the
	// UNICO-found core, each with its own depth-first schedule search.
	DefaultLatencyMs, FoundLatencyMs float64
	DefaultPowerMW, FoundPowerMW     float64
	// LatencySavePct and PowerSavePct are the relative reductions.
	LatencySavePct, PowerSavePct float64
	FoundHW                      string
	CostHours                    float64
}

// AscendResult is the outcome of the Fig. 11 industrial case study.
type AscendResult struct {
	DefaultHW string
	Rows      []AscendRow
	// AvgPowerSavePct is the average power saving (paper: 32.3%).
	AvgPowerSavePct float64
}

// RunAscend reproduces Fig. 11: UNICO co-optimizes the Ascend-like core for
// each network (paper settings N=8, MaxIter=30, b_max=200, area ≤ 200 mm²)
// on the cycle-level CAModel, and the discovered core's latency and power
// are compared against the expert-selected default configuration under the
// same schedule-search budget.
func RunAscend(w io.Writer, s Scale) AscendResult {
	nets := []workload.Workload{
		workload.UNet(),
		workload.FSRCNN(120, 320),
		workload.FSRCNN(240, 640),
		workload.FSRCNN(480, 960),
		workload.DLEU(),
	}
	def := hw.DefaultAscend()
	out := AscendResult{DefaultHW: def.String()}
	fprintf(w, "=== Figure 11: UNICO vs default Ascend-like core (CAModel) ===\n")
	fprintf(w, "default: %s\n", def.String())

	var sumPow float64
	var n int
	for ni, net := range nets {
		p := platform.NewAscend([]workload.Workload{net}, mapsearch.DepthFirst)
		seed := s.Seed + int64(ni)*31

		// Expert default, same schedule-search budget.
		defX := p.AscendSpace().Encode(def)
		defMet, defOK := core.SearchAt(s.ctx(), p, defX, seed, s.AscendBMax).Best()

		// UNICO co-optimization; power and latency are the goals under the
		// area cap. The representative is selected relative to the default
		// core: the front design with the best joint latency-and-power
		// improvement factor over the expert configuration.
		opt := core.UNICOOptions(s.AscendBatch, s.AscendIter, s.AscendBMax, seed)
		res := s.run("fig11-unico-"+net.Name, p, opt)
		rep, repOK := bestVersusDefault(res.Front, defMet)
		if !defOK || !repOK {
			fprintf(w, "%-16s skipped (default ok=%v, front ok=%v)\n", net.Name, defOK, repOK)
			continue
		}
		row := AscendRow{
			Network:          net.Name,
			DefaultLatencyMs: defMet.LatencyMs,
			FoundLatencyMs:   rep.Metrics.LatencyMs,
			DefaultPowerMW:   defMet.PowerMW,
			FoundPowerMW:     rep.Metrics.PowerMW,
			FoundHW:          p.Describe(rep.X),
			CostHours:        res.Hours,
		}
		row.LatencySavePct = (row.DefaultLatencyMs - row.FoundLatencyMs) / row.DefaultLatencyMs * 100
		row.PowerSavePct = (row.DefaultPowerMW - row.FoundPowerMW) / row.DefaultPowerMW * 100
		out.Rows = append(out.Rows, row)
		sumPow += row.PowerSavePct
		n++
		fprintf(w, "%-16s latency %.5g -> %.5g ms (%+.1f%%)  power %.5g -> %.5g mW (%+.1f%%)  cost %.1fh\n",
			net.Name, row.DefaultLatencyMs, row.FoundLatencyMs, -row.LatencySavePct,
			row.DefaultPowerMW, row.FoundPowerMW, -row.PowerSavePct, row.CostHours)
		fprintf(w, "  found: %s\n", row.FoundHW)
	}
	if n > 0 {
		out.AvgPowerSavePct = sumPow / float64(n)
	}
	fprintf(w, "average power saving: %.1f%%\n", out.AvgPowerSavePct)
	return out
}

// bestVersusDefault picks the front design with the smallest Chebyshev
// ratio against the default core: minimize max(latency ratio, power ratio).
// A design that improves both metrics always beats one that trades a large
// regression in one for the other — the balanced-improvement regime the
// paper's Fig. 11 reports.
func bestVersusDefault(front []core.Candidate, def ppa.Metrics) (core.Candidate, bool) {
	best := -1
	bestScore := 0.0
	for i, c := range front {
		score := math.Max(c.Metrics.LatencyMs/def.LatencyMs, c.Metrics.PowerMW/def.PowerMW)
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return core.Candidate{}, false
	}
	return front[best], true
}
