package experiments

import (
	"io"
	"math"

	"unico/internal/baselines"
	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/workload"
)

// GenRow is one validation network of the Fig. 9 study.
type GenRow struct {
	Network string
	// UNICODist and HASCODist are the normalized min-Euclidean distances of
	// the PPA each method's hardware achieves on the network.
	UNICODist, HASCODist float64
	// GainRatio is HASCODist / UNICODist (> 1 means UNICO's hardware
	// generalizes better).
	GainRatio float64
}

// GeneralizationResult is the outcome of the Fig. 9 study.
type GeneralizationResult struct {
	UNICOHW, HASCOHW string
	Rows             []GenRow
	// AvgImprovementPct is the average min-Euclid improvement of UNICO's
	// hardware over HASCO's across the validation networks (paper: 44%).
	AvgImprovementPct float64
}

// RunGeneralization reproduces Fig. 9: co-optimize on the training set
// {MobileNetV2, ResNet, SRGAN, VGG} with UNICO (robustness objective on) and
// with the HASCO-like baseline; adopt each method's min-Euclid hardware; and
// compare the PPA both achieve on eight unseen networks via individual
// mapping searches.
func RunGeneralization(w io.Writer, s Scale) GeneralizationResult {
	train := []workload.Workload{
		workload.MobileNetV2(), workload.ResNet(), workload.SRGAN(), workload.VGG(),
	}
	validation := []workload.Workload{
		workload.UNet(), workload.ViT(), workload.Xception(),
		workload.MobileNetV3Large(), workload.MobileNetV3Small(),
		workload.NASNetMobile(), workload.EfficientNetV2(), workload.ConvNeXt(),
	}
	p := spatialPlatform(hw.Edge, train...)

	// Stable sensitivity estimates need minimum budgets even at small
	// scales (R is a distributional statistic of the mapping search).
	iters, bmax := max(s.MaxIter, 8), max(s.BMax, 80)
	s.BMax = bmax
	unicoRes := s.run("fig9-unico", p, core.UNICOOptions(s.Batch, iters, bmax, s.Seed))
	hascoRes := s.run("fig9-hasco", p, baselines.HASCOOptions(s.Batch, max(s.HASCOIter, 8), bmax, s.Seed+7))

	out := GeneralizationResult{}
	// Representative selection uses a normalization pool shared by both
	// fronts, so the two methods pick designs aiming at the same knee.
	// UNICO's selection additionally uses the sensitivity metric R (the
	// paper: R "is not only an additional MOBO optimization objective but
	// also being used in selecting" the hardware): among its designs whose
	// knee distance is within 15% of its best, it picks the most robust.
	var pool [][]float64
	for _, c := range unicoRes.Front {
		pool = append(pool, c.Objectives(false))
	}
	for _, c := range hascoRes.Front {
		pool = append(pool, c.Objectives(false))
	}
	uRep, uOK := robustKnee(unicoRes.Front, pool, 0.15)
	hRep, hOK := robustKnee(hascoRes.Front, pool, 0)
	if !uOK || !hOK {
		fprintf(w, "generalization: empty front (unico=%v hasco=%v)\n", uOK, hOK)
		return out
	}
	out.UNICOHW = p.Describe(uRep.X)
	out.HASCOHW = p.Describe(hRep.X)
	fprintf(w, "=== Figure 9: generalization to unseen DNNs ===\n")
	fprintf(w, "UNICO HW: %s\nHASCO HW: %s\n", out.UNICOHW, out.HASCOHW)
	fprintf(w, "%-16s %12s %12s %10s\n", "Network", "UNICO dist", "HASCO dist", "gain")

	var sumImp float64
	var n int
	for vi, net := range validation {
		// Validation searches get double budget so the comparison reflects
		// the hardware, not residual search noise.
		uc, uok := evalHWOnNetwork(s.ctx(), hw.Edge, uRep.X, net, 2*s.BMax, s.Seed+1000+int64(vi))
		hc, hok := evalHWOnNetwork(s.ctx(), hw.Edge, hRep.X, net, 2*s.BMax, s.Seed+2000+int64(vi))
		if !uok || !hok {
			fprintf(w, "%-16s infeasible (unico=%v hasco=%v)\n", net.Name, uok, hok)
			continue
		}
		// The transfer comparison uses the workload-dependent objectives
		// (latency, power): area is fixed at design time and transfers
		// trivially, so including it would only reward the smaller chip.
		up := uc.Objectives(false)[:2]
		hp := hc.Objectives(false)[:2]
		pool := [][]float64{up, hp}
		row := GenRow{
			Network:   net.Name,
			UNICODist: minEuclidDistance(up, pool),
			HASCODist: minEuclidDistance(hp, pool),
		}
		if row.UNICODist > 0 {
			row.GainRatio = row.HASCODist / row.UNICODist
		}
		out.Rows = append(out.Rows, row)
		sumImp += (row.HASCODist - row.UNICODist) / row.HASCODist * 100
		n++
		fprintf(w, "%-16s %12.4f %12.4f %9.2fx\n",
			row.Network, row.UNICODist, row.HASCODist, row.GainRatio)
	}
	if n > 0 {
		out.AvgImprovementPct = sumImp / float64(n)
	}
	fprintf(w, "average min-Euclid improvement of UNICO HW: %.1f%%\n", out.AvgImprovementPct)
	return out
}

// robustKnee picks a front's representative against a shared normalization
// pool: the design with the minimum range-normalized distance to the pool's
// ideal corner, with near-ties (knee distance within (1+band) of the best)
// broken by the lowest sensitivity R. band = 0 disables the tie-break.
func robustKnee(front []core.Candidate, pool [][]float64, band float64) (core.Candidate, bool) {
	if len(front) == 0 {
		return core.Candidate{}, false
	}
	if len(pool) == 0 {
		for _, c := range front {
			pool = append(pool, c.Objectives(false))
		}
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
		return math.Sqrt(sum)
	}
	ds := make([]float64, len(front))
	best := 0
	for i, c := range front {
		ds[i] = dist(c.Objectives(false))
		if ds[i] < ds[best] {
			best = i
		}
	}
	sel := best
	for i := range front {
		if ds[i] <= ds[best]*(1+band) && front[i].Sensitivity < front[sel].Sensitivity {
			sel = i
		}
	}
	return front[sel], true
}
