package experiments

import (
	"io"
	"math"
	"sort"

	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/robust"
	"unico/internal/workload"
)

// PairMember is one hardware design of a Fig. 8 comparable pair.
type PairMember struct {
	Index       int // position in the training Pareto front
	X           []float64
	HWDesc      string
	TrainPPA    []float64
	Sensitivity float64
	// ValLatency and ValEDP map validation network name to the latency and
	// energy-delay product the design achieves after an individual mapping
	// search.
	ValLatency map[string]float64
	ValEDP     map[string]float64
}

// Pair is a pair of PPA-comparable designs with different sensitivity.
type Pair struct {
	Robust, Fragile PairMember // Robust has the smaller R
	// RobustWinsAvg reports whether the lower-R member achieved the better
	// geometric-mean energy-delay product across the validation networks.
	RobustWinsAvg bool
	// AvgGainPct is the geometric-mean validation-EDP advantage of the
	// robust member, in percent.
	AvgGainPct float64
}

// RobustnessResult is the outcome of the Fig. 8 study.
type RobustnessResult struct {
	FrontSize int
	Pairs     []Pair
}

// RunRobustnessIndicator reproduces Fig. 8: is metric R a valid indicator of
// hardware generalization? UNICO runs *without* the sensitivity objective on
// the training set {UNET, SRGAN, BERT}; pairs of Pareto designs with
// comparable PPA (≤ 10% apart) but different R are validated on
// {ResNet, ResUNet, VIT, MobileNet} by individual mapping searches.
func RunRobustnessIndicator(w io.Writer, s Scale) RobustnessResult {
	train := []workload.Workload{workload.UNet(), workload.SRGAN(), workload.BERT()}
	validation := []workload.Workload{
		workload.ResNet(), workload.ResUNet(), workload.ViT(), workload.MobileNet(),
	}
	p := spatialPlatform(hw.Edge, train...)

	// The pair study needs a reasonably dense Pareto front and stable R
	// estimates; enforce minimum budgets even under small scales.
	iters, bmax := max(s.MaxIter, 8), max(s.BMax, 80)
	opt := core.UNICOOptions(s.Batch, iters, bmax, s.Seed)
	opt.UseRobustness = false // R is measured, not optimized, in this study
	res := s.run("fig8-unico", p, opt)
	s.BMax = bmax

	fprintf(w, "=== Figure 8: metric R as a generalization indicator ===\n")
	fprintf(w, "training front: %d designs\n", len(res.Front))
	out := RobustnessResult{FrontSize: len(res.Front)}

	// Paper steps (2)-(3): select PPA-comparable pairs first, then compute
	// R for each member of a pair with a dedicated full-budget mapping
	// search on the training set (the co-search histories are too short for
	// early-stopped candidates to estimate R reliably).
	reEstimate := func(c *core.Candidate, seed int64) {
		job := core.SearchAt(s.ctx(), p, c.X, seed, 2*s.BMax)
		c.Sensitivity = robust.Sensitivity(job.RawHistory(), robust.DefaultAlpha)
	}
	front := append([]core.Candidate(nil), res.Front...)
	needR := map[int]bool{}
	for i := 0; i < len(front); i++ {
		for j := i + 1; j < len(front); j++ {
			if ppaClose(front[i].Objectives(false)[:2], front[j].Objectives(false)[:2], 0.15) {
				needR[i] = true
				needR[j] = true
			}
		}
	}
	for i := range needR {
		reEstimate(&front[i], s.Seed+int64(i)*613)
	}

	pairs := comparablePairs(front, 0.15, 3)
	for pi, pr := range pairs {
		members := [2]PairMember{pr[0], pr[1]}
		for mi := range members {
			members[mi].HWDesc = p.Describe(members[mi].X)
			members[mi].ValLatency = map[string]float64{}
			members[mi].ValEDP = map[string]float64{}
			for vi, net := range validation {
				// Two independent mapping searches per network, keeping the
				// better result: the comparison should reflect the hardware,
				// not residual search-seed noise.
				lat, edp := math.Inf(1), math.Inf(1)
				for rep := int64(0); rep < 2; rep++ {
					cand, ok := evalHWOnNetwork(s.ctx(), hw.Edge, members[mi].X, net, 2*s.BMax,
						s.Seed+int64(pi)*1000+int64(mi)*100+int64(vi)+rep*7919)
					if ok && cand.Metrics.EDP() < edp {
						lat, edp = cand.Metrics.LatencyMs, cand.Metrics.EDP()
					}
				}
				members[mi].ValLatency[net.Name] = lat
				members[mi].ValEDP[net.Name] = edp
			}
		}
		robustM, fragileM := members[0], members[1]
		if fragileM.Sensitivity < robustM.Sensitivity {
			robustM, fragileM = fragileM, robustM
		}
		gain, wins := edpGain(robustM, fragileM, validation)
		pair := Pair{Robust: robustM, Fragile: fragileM, RobustWinsAvg: wins, AvgGainPct: gain}
		out.Pairs = append(out.Pairs, pair)

		fprintf(w, "pair %d: robust #%d (R=%.3f, %s) vs fragile #%d (R=%.3f, %s)\n",
			pi+1, robustM.Index, robustM.Sensitivity, robustM.HWDesc,
			fragileM.Index, fragileM.Sensitivity, fragileM.HWDesc)
		for _, net := range validation {
			fprintf(w, "  %-12s robust %.5g ms  fragile %.5g ms\n",
				net.Name, robustM.ValLatency[net.Name], fragileM.ValLatency[net.Name])
		}
		fprintf(w, "  robust wins on average: %v (gain %.1f%%)\n", wins, gain)
	}
	return out
}

// comparablePairs selects up to maxPairs front pairs whose training
// latency/power performance differs by at most tol collectively (the
// power-latency plane of the paper's Fig. 8a) while their sensitivities
// differ the most — the pair-selection step (2)-(3) of Section 4.3.
func comparablePairs(front []core.Candidate, tol float64, maxPairs int) [][2]PairMember {
	type scoredPair struct {
		a, b  int
		rDiff float64
	}
	var candidates []scoredPair
	for i := 0; i < len(front); i++ {
		for j := i + 1; j < len(front); j++ {
			if ppaClose(front[i].Objectives(false)[:2], front[j].Objectives(false)[:2], tol) {
				rd := math.Abs(front[i].Sensitivity - front[j].Sensitivity)
				candidates = append(candidates, scoredPair{i, j, rd})
			}
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a].rDiff > candidates[b].rDiff })
	used := map[int]bool{}
	var out [][2]PairMember
	for _, c := range candidates {
		if len(out) >= maxPairs {
			break
		}
		// A pair is only informative when the sensitivities clearly differ
		// (comparable PPA but distinguishable R, paper step (2)).
		if used[c.a] || used[c.b] || c.rDiff < 0.05 {
			continue
		}
		used[c.a], used[c.b] = true, true
		out = append(out, [2]PairMember{member(front, c.a), member(front, c.b)})
	}
	return out
}

func member(front []core.Candidate, i int) PairMember {
	return PairMember{
		Index:       i,
		X:           front[i].X,
		TrainPPA:    front[i].Objectives(false),
		Sensitivity: front[i].Sensitivity,
	}
}

// ppaClose reports whether two performance vectors differ by at most tol
// collectively: the 2-norm of the per-objective relative differences.
func ppaClose(a, b []float64, tol float64) bool {
	sum := 0.0
	for j := range a {
		hi := math.Max(a[j], b[j])
		if hi <= 0 {
			continue
		}
		d := (a[j] - b[j]) / hi
		sum += d * d
	}
	return math.Sqrt(sum) <= tol
}

// edpGain returns the robust member's validation energy-delay-product
// advantage in percent (geometric mean across networks, so every network
// weighs equally regardless of its absolute scale), and whether it wins on
// average. EDP is the mapping-search objective, so it is the quantity the
// sensitivity metric predicts.
func edpGain(robustM, fragileM PairMember, validation []workload.Workload) (float64, bool) {
	var logSum float64
	n := 0
	for _, net := range validation {
		r, f := robustM.ValEDP[net.Name], fragileM.ValEDP[net.Name]
		if math.IsInf(r, 1) || math.IsInf(f, 1) || r <= 0 || f <= 0 {
			continue
		}
		logSum += math.Log(r / f)
		n++
	}
	if n == 0 {
		return 0, false
	}
	ratio := math.Exp(logSum / float64(n))
	return (1 - ratio) * 100, ratio < 1
}
