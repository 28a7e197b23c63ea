package mapsearch

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

func TestDescLadder(t *testing.T) {
	l := descLadder(100)
	if len(l) > 8 {
		t.Errorf("ladder too long: %v", l)
	}
	if l[0] != 100 {
		t.Errorf("ladder must start at the bound: %v", l)
	}
	if l[len(l)-1] != 1 {
		t.Errorf("ladder must back off all the way to 1: %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] >= l[i-1] {
			t.Errorf("ladder not strictly descending: %v", l)
		}
	}
	// Huge bounds must still reach 1 (the regression that once starved the
	// depth-first walk of feasible tiles).
	huge := descLadder(614400)
	if huge[len(huge)-1] != 1 {
		t.Errorf("huge ladder does not reach 1: %v", huge)
	}
}

func TestDepthFirstFusionFindsFeasible(t *testing.T) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	l := workload.Conv("big", 64, 56, 480, 1280, 3, 3, 1, 1)
	d := depthFirstOn(eng, cfg, l, rand.New(rand.NewSource(1)))
	for i := 0; i < 10 && func() bool { _, ok := d.Best(); return !ok }(); i++ {
		d.Step()
	}
	if _, ok := d.Best(); !ok {
		t.Fatal("no feasible schedule within 10 steps despite warm-start seeds")
	}
	if d.Evals() == 0 {
		t.Error("Evals() = 0")
	}
	if !d.hasBest || !d.best.Valid(l) {
		t.Errorf("best schedule invalid: %+v ok=%v", d.best, d.hasBest)
	}
}

func TestDepthFirstWalkImproves(t *testing.T) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	l := workload.Conv("c", 56, 12, 120, 320, 3, 3, 1, 1)
	d := depthFirstOn(eng, cfg, l, rand.New(rand.NewSource(2)))
	d.Step()
	first, ok := d.Best()
	if !ok {
		t.Fatal("seed schedule infeasible")
	}
	for i := 0; i < 120; i++ {
		d.Step()
	}
	final, _ := d.Best()
	if Loss(final) > Loss(first) {
		t.Errorf("walk worsened: %v -> %v", Loss(first), Loss(final))
	}
}

// buildWalk is the reference the on-demand backoffWalk is checked against:
// the eager enumeration it replaced. It materialises the whole (fusion
// depth, TM, TK, TN, double-buffer combo) product, stable-sorts it by total
// backoff and truncates to the node cap.
func buildWalk(l workload.Layer, fuses, tms, tks, tns []int) []mapping.Ascend {
	dbufs := [][3]bool{
		{true, true, true},
		{true, true, false},
		{true, false, false},
		{false, false, false},
	}
	type node struct {
		m    mapping.Ascend
		cost int
	}
	var nodes []node
	for fi, f := range fuses {
		for mi, tm := range tms {
			for ki, tk := range tks {
				for ni, tn := range tns {
					for di, db := range dbufs {
						m := mapping.Ascend{
							TM: tm, TK: tk, TN: tn, FuseDepth: f,
							DBufA: db[0], DBufB: db[1], DBufC: db[2],
						}.Canon(l)
						nodes = append(nodes, node{m: m, cost: fi + mi + ki + ni + di})
					}
				}
			}
		}
	}
	sort.SliceStable(nodes, func(a, b int) bool { return nodes[a].cost < nodes[b].cost })
	if len(nodes) > 2048 {
		nodes = nodes[:2048]
	}
	walk := make([]mapping.Ascend, len(nodes))
	for i, n := range nodes {
		walk[i] = n.m
	}
	return walk
}

// drainWalk runs the generator to exhaustion, checking on the way that every
// level but the last is non-empty (Step relies on an empty level meaning
// "exhausted").
func drainWalk(t *testing.T, w backoffWalk) []mapping.Ascend {
	t.Helper()
	var out []mapping.Ascend
	for {
		n := len(out)
		out = w.appendLevel(out)
		if len(out) == n {
			break
		}
	}
	if more := w.appendLevel(nil); len(more) != 0 {
		t.Fatalf("walk emitted %d nodes after reporting exhaustion", len(more))
	}
	return out
}

// checkWalkEqualsReference holds the generated walk to the eager reference,
// node for node, and returns it.
func checkWalkEqualsReference(t *testing.T, name string, l workload.Layer, tms, tks, tns []int) []mapping.Ascend {
	t.Helper()
	want := buildWalk(l, []int{4, 3, 2, 1}, tms, tks, tns)
	got := drainWalk(t, walkOver(l, tms, tks, tns))
	if len(got) != len(want) {
		t.Errorf("%s: generated %d nodes, reference has %d", name, len(got), len(want))
		return got
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: node %d = %+v, reference %+v", name, i, got[i], want[i])
			break
		}
	}
	return got
}

// walkOver is the backoff walk of layer l along the given ladders.
func walkOver(l workload.Layer, tms, tks, tns []int) backoffWalk {
	return newBackoffWalk(&ascendLayer{moves: mapping.NewAscendMoves(l), tms: tms, tks: tks, tns: tns})
}

func layerLadders(l workload.Layer) (tms, tks, tns []int) {
	gm, gk, gn := mapping.GemmDims(l)
	return descLadder(gm), descLadder(gk), descLadder(gn)
}

func TestBackoffWalkMatchesReference(t *testing.T) {
	for _, w := range workload.All() {
		for _, l := range w.Layers {
			tms, tks, tns := layerLadders(l)
			checkWalkEqualsReference(t, w.Name+"/"+l.Name, l, tms, tks, tns)
		}
	}

	// Hand-built ladders, one rung of which Canon clamps (64 > gm = 32).
	hand := workload.Conv("c", 32, 16, 64, 64, 3, 3, 1, 1)
	checkWalkEqualsReference(t, "hand-built", hand, []int{64, 32, 16}, []int{32, 16}, []int{128, 64})

	// Degenerate GEMM: every tile ladder has one rung, so only the fusion
	// and double-buffer axes span the tree (16 nodes, 7 levels).
	unit := workload.Gemm("unit", 1, 1, 1, 1)
	tms, tks, tns := layerLadders(unit)
	if len(tms) != 1 || len(tks) != 1 || len(tns) != 1 {
		t.Fatalf("1x1x1 ladders = %v %v %v, want one rung each", tms, tks, tns)
	}
	if n := len(checkWalkEqualsReference(t, "1x1x1", unit, tms, tks, tns)); n != 16 {
		t.Errorf("1x1x1 walk has %d nodes, want 16", n)
	}

	// A 4*7*8*8*4 = 7168-node tree: the cap must cut the walk at 2048
	// nodes, in the middle of a backoff level.
	big := workload.Conv("big", 64, 56, 480, 1280, 3, 3, 1, 1)
	tms, tks, tns = layerLadders(big)
	if n := 16 * len(tms) * len(tks) * len(tns); n <= maxWalkNodes {
		t.Fatalf("big tree has %d nodes, want more than the cap", n)
	}
	checkWalkEqualsReference(t, "big", big, tms, tks, tns)
	w := walkOver(big, tms, tks, tns)
	total, lastLevel := 0, 0
	for {
		n := len(w.appendLevel(nil))
		if n == 0 {
			break
		}
		total, lastLevel = total+n, n
	}
	if total != maxWalkNodes {
		t.Fatalf("capped walk has %d nodes, want %d", total, maxWalkNodes)
	}
	uncapped := walkOver(big, tms, tks, tns)
	uncapped.left = 1 << 30
	var full int
	for i := 0; i < w.level; i++ {
		full = len(uncapped.appendLevel(nil))
	}
	if lastLevel >= full {
		t.Errorf("cap did not land mid-level: last level emitted %d of %d nodes", lastLevel, full)
	}
}

func TestBuildWalkBackoffOrder(t *testing.T) {
	l := workload.Conv("c", 32, 16, 64, 64, 3, 3, 1, 1)
	walk := drainWalk(t, walkOver(l, []int{64, 32, 16}, []int{32, 16}, []int{128, 64}))
	if len(walk) == 0 {
		t.Fatal("empty walk")
	}
	// The first node must be the most aggressive corner.
	first := walk[0]
	if first.FuseDepth != 4 || !first.DBufA || !first.DBufB || !first.DBufC {
		t.Errorf("first node not the aggressive corner: %+v", first)
	}
	if first.TM != 32 { // clamped to gm = 32 output channels
		t.Errorf("first TM = %d", first.TM)
	}
}

// recordingEngine is a stub AscendEngine that records every schedule it is
// asked about. Metrics are a fixed function of the schedule so the incumbent
// changes along the walk; with feasible unset every evaluation fails.
type recordingEngine struct {
	feasible bool
	seen     *[]mapping.Ascend
}

func (e recordingEngine) Evaluate(_ hw.Ascend, m mapping.Ascend, _ workload.Layer) (ppa.Metrics, error) {
	*e.seen = append(*e.seen, m)
	if !e.feasible || m.TM%3 == 0 {
		return ppa.Metrics{}, errors.New("stub: infeasible")
	}
	lat := float64(1 + (m.TM*31+m.TK*17+m.TN*7+m.FuseDepth*3)%97)
	return ppa.Metrics{LatencyMs: lat, PowerMW: 2, AreaMM2: 1, EnergyUJ: 2 * lat}, nil
}

func (recordingEngine) Area(hw.Ascend) float64   { return 1 }
func (recordingEngine) EvalCostSeconds() float64 { return 1 }

// problemOn is a layer's problem on core cfg, counting its engine calls in
// a tally of its own.
func problemOn(eng AscendEngine, cfg hw.Ascend, lay *ascendLayer) *ascendProblem {
	return &ascendProblem{job: &ascendJob{eng: eng, cfg: cfg, tally: &Tally{}}, layer: lay}
}

// depthFirstOn builds the depth-first searcher of layer l on core cfg.
func depthFirstOn(eng AscendEngine, cfg hw.Ascend, l workload.Layer, rng *rand.Rand) *DepthFirstFusion {
	return newDepthFirstFusion(problemOn(eng, cfg, newAscendLayer(l)), rng)
}

// eagerSteps replays the searcher as it was before the walk was generated
// on demand — seeds, then the whole reference walk, then the rng-driven tail
// — and returns the schedules it evaluates and the index of the first one
// drawn from the rng.
func eagerSteps(eng AscendEngine, cfg hw.Ascend, l workload.Layer, rng *rand.Rand, steps int) (cands []mapping.Ascend, handoff int) {
	prob := problemOn(eng, cfg, newAscendLayer(l))
	tms, tks, tns := layerLadders(l)
	seeds, n := prob.seeds()
	walk := append(seeds[:n:n], buildWalk(l, []int{4, 3, 2, 1}, tms, tks, tns)...)
	var best mapping.Ascend
	var bestMet ppa.Metrics
	hasBest := false
	for i := 0; i < steps; i++ {
		var cand mapping.Ascend
		switch {
		case i < len(walk):
			cand = walk[i]
		case hasBest:
			cand = prob.Mutate(rng, best)
		default:
			cand = prob.Random(rng)
		}
		cands = append(cands, cand)
		met, err := prob.Evaluate(cand)
		if err == nil && (!hasBest || Loss(met) < Loss(bestMet)) {
			best, bestMet, hasBest = cand, met, true
		}
	}
	return cands, len(walk)
}

// TestDepthFirstStepSequenceMatchesEager pins the walk-to-mutation hand-off:
// stepped past the end of the walk, the searcher evaluates the same
// schedules in the same order as the eager implementation and leaves the
// rng in the same state.
func TestDepthFirstStepSequenceMatchesEager(t *testing.T) {
	const steps = 2200
	cfg := hw.DefaultAscend()
	layers := []workload.Layer{
		workload.Conv("big", 64, 56, 480, 1280, 3, 3, 1, 1), // capped walk
		workload.Conv("c", 56, 12, 120, 320, 3, 3, 1, 1),
		workload.Gemm("unit", 1, 1, 1, 1), // 16-node walk, long tail
	}
	for _, l := range layers {
		for _, feasible := range []bool{true, false} {
			var want, got []mapping.Ascend
			refRng := rand.New(rand.NewSource(11))
			wantSeq, handoff := eagerSteps(recordingEngine{feasible, &want}, cfg, l, refRng, steps)
			if handoff >= steps {
				t.Fatalf("%s: walk of %d nodes never hands off within %d steps", l.Name, handoff, steps)
			}

			rng := rand.New(rand.NewSource(11))
			d := depthFirstOn(recordingEngine{feasible, &got}, cfg, l, rng)
			for i := 0; i < steps; i++ {
				d.Step()
			}
			if len(got) != steps || len(want) != steps {
				t.Fatalf("%s: recorded %d / %d evaluations, want %d", l.Name, len(got), len(want), steps)
			}
			for i := range want {
				if want[i] != wantSeq[i] {
					t.Fatalf("%s: reference recorded %+v but evaluated %+v at step %d", l.Name, want[i], wantSeq[i], i)
				}
				if got[i] != want[i] {
					t.Fatalf("%s feasible=%v: step %d (hand-off at %d) evaluated %+v, eager %+v",
						l.Name, feasible, i, handoff, got[i], want[i])
				}
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Errorf("%s feasible=%v: rng state diverged after %d steps", l.Name, feasible, steps)
			}
			if d.Evals() != steps {
				t.Errorf("%s: Evals() = %d, want %d", l.Name, d.Evals(), steps)
			}
		}
	}
}

// layerRecorder is recordingEngine with every schedule feasible but those
// with TM a multiple of 3, keeping one record per layer.
type layerRecorder map[string]*[]mapping.Ascend

func (r layerRecorder) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if r[l.Name] == nil {
		r[l.Name] = new([]mapping.Ascend)
	}
	return recordingEngine{feasible: true, seen: r[l.Name]}.Evaluate(c, m, l)
}

func (layerRecorder) Area(hw.Ascend) float64   { return 1 }
func (layerRecorder) EvalCostSeconds() float64 { return 1 }

// TestSharedWalkMatchesReference advances four jobs of one Network
// concurrently, in installments of random size, and holds every layer's
// evaluations in every job to its seeds and then the eager reference walk,
// node for node, up to where the job leaves the walk for mutation. Run it
// under -race: a layer's walk grows while the other jobs read it.
func TestSharedWalkMatchesReference(t *testing.T) {
	w := workload.Workload{Name: "walks", Layers: []workload.Layer{
		workload.Conv("big", 64, 56, 480, 1280, 3, 3, 1, 1), // capped walk
		workload.Conv("c", 56, 12, 120, 320, 3, 3, 1, 1),
		workload.Gemm("unit", 1, 1, 1, 1), // 16-node walk, long tail
	}}
	net := NewNetwork(w)
	cfg := hw.DefaultAscend()
	const jobs, budget = 4, 900
	recs := make([]layerRecorder, jobs)
	var wg sync.WaitGroup
	for j := range recs {
		recs[j] = layerRecorder{}
		ns := net.Ascend(recs[j], cfg, int64(j))
		rng := rand.New(rand.NewSource(int64(j)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left := budget; left > 0; {
				b := min(left, 1+rng.Intn(40))
				ns.Advance(b)
				left -= b
			}
		}()
	}
	wg.Wait()
	for _, l := range w.Layers {
		seeds, n := (&ascendProblem{job: &ascendJob{cfg: cfg}, layer: newAscendLayer(l)}).seeds()
		tms, tks, tns := layerLadders(l)
		want := append(seeds[:n:n], buildWalk(l, []int{4, 3, 2, 1}, tms, tks, tns)...)
		for j, rec := range recs {
			got := *rec[l.Name]
			if l.Name != "c" && len(got) <= len(want) {
				t.Fatalf("job %d stepped %s %d times, not past its %d-node walk", j, l.Name, len(got), len(want))
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("job %d, %s: step %d evaluated %+v, reference %+v", j, l.Name, i, got[i], want[i])
				}
			}
		}
	}
}

// volumeEngine is a stub AscendEngine under which every schedule is
// feasible, at a latency of its tile volume.
type volumeEngine struct{}

func (volumeEngine) Evaluate(_ hw.Ascend, m mapping.Ascend, _ workload.Layer) (ppa.Metrics, error) {
	lat := float64(m.TM * m.TK * m.TN)
	return ppa.Metrics{LatencyMs: lat, PowerMW: 2, AreaMM2: 1, EnergyUJ: 2 * lat}, nil
}

func (volumeEngine) Area(hw.Ascend) float64   { return 1 }
func (volumeEngine) EvalCostSeconds() float64 { return 1 }

// TestDepthFirstStepOnWalkAllocatesNothing: a step onto a feasible node of
// a walk another searcher of the layer has already generated allocates
// nothing.
func TestDepthFirstStepOnWalkAllocatesNothing(t *testing.T) {
	l := workload.Conv("c", 56, 12, 120, 320, 3, 3, 1, 1)
	lay := newAscendLayer(l)
	prob := problemOn(volumeEngine{}, hw.DefaultAscend(), lay)
	ahead := newDepthFirstFusion(prob, rand.New(rand.NewSource(1)))
	for i := 0; i < 400; i++ {
		ahead.Step()
	}
	d := newDepthFirstFusion(prob, rand.New(rand.NewSource(2)))
	for i := 0; i < 10; i++ {
		d.Step()
	}
	if allocs := testing.AllocsPerRun(200, d.Step); allocs != 0 {
		t.Errorf("a step on a generated walk node allocates %v times, want 0", allocs)
	}
	if d.Evals() >= ahead.Evals() || d.walkDone {
		t.Fatalf("the searcher stepped %d times, past the %d nodes generated ahead of it", d.Evals(), ahead.Evals())
	}
}

// TestAscendSearcherAlgos: the Ascend-like platform runs the depth-first
// search whatever Algo its constructor is given, and the search finds a
// valid schedule with a monotone history.
func TestAscendSearcherAlgos(t *testing.T) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	w, err := workload.ByName("FSRCNN-120x320")
	if err != nil {
		t.Fatal(err)
	}
	want := NewNetwork(w).Ascend(eng, cfg, 3)
	want.Advance(12)
	met, ok := want.Best()
	if !ok {
		t.Fatal("no feasible schedule")
	}
	if !met.Valid() {
		t.Errorf("invalid metrics %+v", met)
	}
	if !want.History().Monotone() {
		t.Error("non-monotone history")
	}
	for _, algo := range []Algo{DepthFirst, FlexTensorLike} {
		ns := NewAscendSearcher(eng, cfg, w, algo, 3)
		ns.Advance(12)
		if !reflect.DeepEqual(ns.History(), want.History()) {
			t.Errorf("%v: history differs from the depth-first search's", algo)
		}
	}
}

func TestAscendSeedsFeasibleOnDefault(t *testing.T) {
	eng := camodel.Engine{}
	cfg := hw.DefaultAscend()
	for _, w := range workload.All() {
		for _, l := range w.Layers {
			p := problemOn(eng, cfg, newAscendLayer(l))
			seeds, n := p.seeds()
			if n == 0 {
				t.Fatalf("%s/%s: no seeds", w.Name, l.Name)
			}
			feasible := false
			for _, s := range seeds[:n] {
				if _, err := p.Evaluate(s); err == nil {
					feasible = true
					break
				}
			}
			if !feasible {
				t.Errorf("%s/%s: no feasible seed", w.Name, l.Name)
			}
		}
	}
}
