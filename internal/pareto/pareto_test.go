package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 2}, []float64{1, 3}, true},
		{[]float64{3, 1}, []float64{2, 2}, false},
	}
	for _, tc := range cases {
		if got := Dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFrontSimple(t *testing.T) {
	pts := [][]float64{
		{1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {1, 5},
	}
	idx := Front(pts)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(idx) != len(want) {
		t.Fatalf("Front = %v", idx)
	}
	for _, i := range idx {
		if !want[i] {
			t.Errorf("unexpected front member %d (%v)", i, pts[i])
		}
	}
}

// bruteFront recomputes the front definition directly for cross-checking.
func bruteFront(pts [][]float64) map[string]bool {
	out := map[string]bool{}
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[key(p)] = true
		}
	}
	return out
}

func key(p []float64) string {
	s := ""
	for _, v := range p {
		s += "|"
		s += string(rune(int(v*7) + 48))
	}
	return s
}

func TestFrontMatchesBruteForceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var pts [][]float64
		for i := 0; i+1 < len(raw) && len(pts) < 12; i += 2 {
			pts = append(pts, []float64{float64(raw[i] % 8), float64(raw[i+1] % 8)})
		}
		want := bruteFront(pts)
		for _, i := range Front(pts) {
			if !want[key(pts[i])] {
				return false
			}
		}
		// Every non-dominated *value* must appear in the front.
		got := map[string]bool{}
		for _, i := range Front(pts) {
			got[key(pts[i])] = true
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrontDeduplicates(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	if got := Front(pts); len(got) != 1 {
		t.Errorf("Front kept %d duplicates", len(got))
	}
}

func TestHypervolume2DByHand(t *testing.T) {
	// Points (1,3), (2,2), (3,1) with ref (4,4). By x-slices:
	// x in [1,2): y in [3,4) -> 1; x in [2,3): y in [2,4) -> 2;
	// x in [3,4): y in [1,4) -> 3. Union area = 6.
	pts := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	ref := []float64{4, 4}
	if got := Hypervolume(pts, ref); math.Abs(got-6) > 1e-12 {
		t.Errorf("HV = %v, want 6", got)
	}
}

func TestHypervolume3DByHand(t *testing.T) {
	// Single point: a box.
	if got := Hypervolume([][]float64{{1, 2, 3}}, []float64{2, 4, 6}); math.Abs(got-1*2*3) > 1e-12 {
		t.Errorf("HV = %v, want 6", got)
	}
	// Two disjoint-ish boxes: inclusion-exclusion.
	pts := [][]float64{{0, 1, 1}, {1, 0, 1}}
	ref := []float64{2, 2, 2}
	// inclhv each = 2*1*1 = 2; overlap box from (1,1,1) = 1.
	if got := Hypervolume(pts, ref); math.Abs(got-3) > 1e-12 {
		t.Errorf("HV = %v, want 3", got)
	}
}

func TestHypervolumeIgnoresOutsidePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {5, 5}}
	ref := []float64{4, 4}
	if got := Hypervolume(pts, ref); math.Abs(got-9) > 1e-12 {
		t.Errorf("HV = %v, want 9", got)
	}
	if got := Hypervolume(nil, ref); got != 0 {
		t.Errorf("HV(empty) = %v", got)
	}
}

func TestHypervolumeMonotoneProperty(t *testing.T) {
	// Adding any point never decreases hypervolume.
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		ref := []float64{9, 9}
		var pts [][]float64
		for i := 0; i+1 < len(raw) && len(pts) < 8; i += 2 {
			pts = append(pts, []float64{float64(raw[i] % 9), float64(raw[i+1] % 9)})
		}
		base := Hypervolume(pts[:len(pts)-1], ref)
		full := Hypervolume(pts, ref)
		return full >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHypervolumePermutationInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		}
		ref := []float64{6, 6, 6}
		a := Hypervolume(pts, ref)
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		b := Hypervolume(pts, ref)
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHypervolumeHelpers(t *testing.T) {
	pts := [][]float64{{1, 2, 3}, {2, 1, 3}, {3, 3, 1}}
	ref := RefPoint(pts)
	for j, v := range ref {
		if v <= 3 {
			t.Errorf("ref[%d] = %v, want > max", j, v)
		}
	}
	hv := NormalizedHypervolume(pts, ref)
	if hv <= 0 || hv > 1 {
		t.Errorf("NormalizedHypervolume = %v, want (0, 1]", hv)
	}
	if NormalizedHypervolume(nil, ref) != 0 {
		t.Error("NormalizedHypervolume(empty) != 0")
	}
	if got := RefPoint(nil); got != nil {
		t.Error("RefPoint(empty) != nil")
	}
}

// TestNormalizedHypervolumeNeverFallsProperty: under one reference taken
// over a whole point set, the normalized hypervolume of the set's growing
// prefixes never falls and stays in [0, 1] — the property a convergence
// curve drawn against one reference relies on.
func TestNormalizedHypervolumeNeverFallsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, 10)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 50, rng.Float64() * 400, rng.Float64() * 3}
		}
		ref := RefPoint(pts)
		prev := 0.0
		for n := 0; n <= len(pts); n++ {
			hv := NormalizedHypervolume(pts[:n], ref)
			if hv < prev || hv < 0 || hv > 1 {
				t.Logf("seed %d: %d points give %v after %v", seed, n, hv, prev)
				return false
			}
			prev = hv
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCrowdingDistance(t *testing.T) {
	pts := [][]float64{{0, 4}, {1, 2}, {2, 1}, {4, 0}}
	cds := CrowdingDistance(pts)
	if !math.IsInf(cds[0], 1) || !math.IsInf(cds[3], 1) {
		t.Errorf("boundary points not infinite: %v", cds)
	}
	if math.IsInf(cds[1], 1) || cds[1] <= 0 {
		t.Errorf("interior crowding distance %v", cds[1])
	}
	if len(CrowdingDistance(nil)) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestMinEuclidKnee(t *testing.T) {
	// A clean 2D front with an obvious knee at (2,2).
	pts := [][]float64{{1, 10}, {2, 2}, {10, 1}}
	if got := MinEuclid(pts); got != 1 {
		t.Errorf("MinEuclid = %d, want 1 (the knee)", got)
	}
	if MinEuclid(nil) != -1 {
		t.Error("MinEuclid(empty) != -1")
	}
}

func TestNonDominatedSortRanks(t *testing.T) {
	pts := [][]float64{
		{1, 4}, {2, 3}, {4, 1}, // F1
		{2, 5}, {3, 4}, // F2 (each dominated by an F1 point only)
		{5, 5}, // F3
	}
	fronts := NonDominatedSort(pts)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts: %v", len(fronts), fronts)
	}
	if len(fronts[0]) != 3 || len(fronts[1]) != 2 || len(fronts[2]) != 1 {
		t.Errorf("front sizes: %v", fronts)
	}
	// F1 must equal Front().
	f1 := map[int]bool{}
	for _, i := range fronts[0] {
		f1[i] = true
	}
	for _, i := range Front(pts) {
		if !f1[i] {
			t.Errorf("Front member %d missing from NDS F1", i)
		}
	}
}

func TestNonDominatedSortCoversAllProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var pts [][]float64
		for i := 0; i+1 < len(raw) && len(pts) < 10; i += 2 {
			pts = append(pts, []float64{float64(raw[i] % 6), float64(raw[i+1] % 6)})
		}
		fronts := NonDominatedSort(pts)
		count := 0
		for _, f := range fronts {
			count += len(f)
		}
		return count == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHypervolume4DMatchesInclusionExclusion checks the WFG recursion in
// four dimensions — the dimension of every run with R — against the
// definition: the volume of the union of the boxes [p, ref), by
// inclusion–exclusion over every non-empty subset of points, a subset's
// boxes meeting in the box at their component-wise maximum. The seeded
// sets hold up to 9 points on a half-unit grid, so ties, duplicates,
// dominated points and points outside ref all occur.
// Mutation check: inclhv multiplying only the first three objectives fails
// this test and no other in the package.
func TestHypervolume4DMatchesInclusionExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := []float64{5, 5, 5, 5}
	for trial := 0; trial < 300; trial++ {
		pts := make([][]float64, 1+rng.Intn(9))
		for i := range pts {
			pts[i] = make([]float64, len(ref))
			for j := range ref {
				pts[i][j] = float64(rng.Intn(11)) / 2
			}
		}
		got, want := Hypervolume(pts, ref), inclusionExclusion(pts, ref)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: Hypervolume(%v) = %v, inclusion–exclusion %v", trial, pts, got, want)
		}
	}
}

// inclusionExclusion is the hypervolume of pts against ref by its
// definition, in O(2ⁿ·n·d).
func inclusionExclusion(pts [][]float64, ref []float64) float64 {
	total := 0.0
	for mask := 1; mask < 1<<len(pts); mask++ {
		vol, sign := 1.0, -1.0
		for m := mask; m > 0; m &= m - 1 {
			sign = -sign
		}
		for j := range ref {
			corner := math.Inf(-1)
			for i, p := range pts {
				if mask&(1<<i) != 0 {
					corner = math.Max(corner, p[j])
				}
			}
			vol *= math.Max(0, ref[j]-corner)
		}
		total += sign * vol
	}
	return total
}

// TestNonDominatedSortMatchesRankDefinition checks every point's front
// against the rank definition: 0 for a point nothing dominates, else one
// more than the highest rank among the points that dominate it. Seeded 2-,
// 3- and 4-objective sets of up to 12 points on a small grid, so
// duplicates and long dominance chains occur.
// Mutation check: counting a point's dominators only among lower indices
// (j < i in NonDominatedSort's first loop) still places every point in
// exactly one front, so TestNonDominatedSortCoversAllProperty passes, and
// fails this test.
func TestNonDominatedSortMatchesRankDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		pts := make([][]float64, rng.Intn(13))
		for i := range pts {
			pts[i] = make([]float64, 2+trial%3)
			for j := range pts[i] {
				pts[i][j] = float64(rng.Intn(4))
			}
		}
		want := ranks(pts)
		placed := 0
		for r, front := range NonDominatedSort(pts) {
			for _, i := range front {
				if want[i] != r {
					t.Fatalf("trial %d: point %d %v in front %d, its rank is %d", trial, i, pts[i], r, want[i])
				}
				placed++
			}
		}
		if placed != len(pts) {
			t.Fatalf("trial %d: %d of %d points placed", trial, placed, len(pts))
		}
	}
}

// ranks returns each point's non-domination rank by its definition, relaxing
// every dominating pair until no rank changes.
func ranks(pts [][]float64) []int {
	rank := make([]int, len(pts))
	for changed := true; changed; {
		changed = false
		for i := range pts {
			for j := range pts {
				if Dominates(pts[j], pts[i]) && rank[i] <= rank[j] {
					rank[i], changed = rank[j]+1, true
				}
			}
		}
	}
	return rank
}
