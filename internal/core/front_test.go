package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"unico/internal/ppa"
)

// randomBatch draws n candidates whose objectives come from a small grid, so
// ties in one objective and exact duplicates are common. Some candidates are
// infeasible, and some re-enter with the metrics of an earlier candidate
// (dominated re-entries once that one has been beaten). Each candidate's X
// holds its serial number, so a test can tell equal-metric candidates apart.
func randomBatch(rng *rand.Rand, iter, n int, earlier []Candidate, serial *int) []Candidate {
	batch := make([]Candidate, n)
	for i := range batch {
		*serial++
		c := Candidate{X: []float64{float64(*serial)}, Iter: iter, Feasible: rng.Intn(5) > 0}
		if len(earlier) > 0 && rng.Intn(4) == 0 {
			c.Metrics = earlier[rng.Intn(len(earlier))].Metrics
		} else {
			c.Metrics = ppa.Metrics{
				LatencyMs: float64(1 + rng.Intn(5)),
				PowerMW:   float64(1 + rng.Intn(5)),
				AreaMM2:   float64(1 + rng.Intn(3)),
			}
		}
		batch[i] = c
	}
	return batch
}

// TestNextFrontMatchesFullRecomputation is the oracle test of the
// incremental front: after every batch, folding the batch into the previous
// front gives exactly paretoFront over every candidate so far — the same
// candidates in the same order.
func TestNextFrontMatchesFullRecomputation(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var all, front []Candidate
		serial := 0
		for iter := 1; iter <= 12; iter++ {
			batch := randomBatch(rng, iter, rng.Intn(7), all, &serial)
			all = append(all, batch...)
			front = nextFront(front, batch)
			if want := paretoFront(all); !reflect.DeepEqual(front, want) {
				t.Fatalf("seed %d, iteration %d: incremental front\n%+v\nwant\n%+v", seed, iter, front, want)
			}
		}
	}
}

// TestFrontsMatchPrefixRecomputation: on a real run, the front Fronts derives
// at each trace point is paretoFront over the candidates of that iteration
// and earlier, and the last one is the run's front.
func TestFrontsMatchPrefixRecomputation(t *testing.T) {
	res := RunContext(context.Background(), testPlatform(), smallOpts(11))
	fronts := res.Fronts()
	if len(fronts) != len(res.Trace) || len(fronts) == 0 {
		t.Fatalf("%d fronts for %d trace points", len(fronts), len(res.Trace))
	}
	for k, tp := range res.Trace {
		var prefix []Candidate
		for _, c := range res.All {
			if c.Iter <= tp.Iter {
				prefix = append(prefix, c)
			}
		}
		if want := paretoFront(prefix); !reflect.DeepEqual(fronts[k], want) {
			t.Errorf("iteration %d: derived front %d candidates, recomputed %d", tp.Iter, len(fronts[k]), len(want))
		}
	}
	if !reflect.DeepEqual(fronts[len(fronts)-1], res.Front) {
		t.Error("last derived front is not the run's front")
	}
}
