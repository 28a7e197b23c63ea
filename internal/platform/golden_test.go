package platform

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// resultDigest is the SHA-256 of every bit of a co-search result: each
// candidate's X, metrics, sensitivity, feasibility, iteration and whole
// mapping-search history in evaluation order, then the front and the
// evaluation count. The simulated hours stay out: they model how many
// searches overlap, so they are the one field Workers legitimately moves.
func resultDigest(res core.Result) string {
	h := sha256.New()
	hashCandidates(h, res.All)
	hashCandidates(h, res.Front)
	hashFloats(h, float64(res.Evals))
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func hashMetrics(h hash.Hash, m ppa.Metrics) {
	hashFloats(h, m.LatencyMs, m.PowerMW, m.AreaMM2, m.EnergyUJ)
}

func hashCandidates(h hash.Hash, cs []core.Candidate) {
	hashFloats(h, float64(len(cs)))
	for _, c := range cs {
		hashFloats(h, float64(len(c.X)))
		hashFloats(h, c.X...)
		hashMetrics(h, c.Metrics)
		feasible := 0.0
		if c.Feasible {
			feasible = 1
		}
		hashFloats(h, c.Sensitivity, feasible, float64(c.Iter), float64(len(c.History)))
		for _, pt := range c.History {
			hashFloats(h, float64(pt.Budget), pt.Loss)
			hashMetrics(h, pt.M)
		}
	}
}

// ascendGoldenDigest was captured on the commit before the depth-first walk
// became an on-demand generator (eager buildWalk, 2 048 sorted nodes per
// layer per candidate); the generator must not move one bit of it.
const ascendGoldenDigest = "642c857fee35be2819ea7c7565902e19c2306bb03ebcfebc3e15d13b80e19911"

// ascendGoldenHours is the simulated cost of the same run per worker count.
var ascendGoldenHours = map[int]float64{1: 78.75416666666666, 4: 43.75416666666667}

// TestAscendCoSearchGolden pins the Ascend-like co-search bit for bit — the
// result of a small UNICO run on DLEU — and its independence from the worker
// count.
func TestAscendCoSearchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest captured on amd64; other architectures may fuse multiply-adds")
	}
	for workers, hours := range ascendGoldenHours {
		p := NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
		opt := core.UNICOOptions(5, 3, 40, 9)
		opt.Workers = workers
		res := core.RunContext(context.Background(), p, opt)
		if len(res.All) != 15 || len(res.Front) == 0 {
			t.Fatalf("workers=%d: %d candidates, front of %d", workers, len(res.All), len(res.Front))
		}
		if got := resultDigest(res); got != ascendGoldenDigest {
			t.Errorf("workers=%d: result digest %s, want %s", workers, got, ascendGoldenDigest)
		}
		if res.Hours != hours {
			t.Errorf("workers=%d: simulated hours %v, want %v", workers, res.Hours, hours)
		}
	}
}

// spatialGoldenDigest was captured on the commit before maestro.Evaluate
// stopped building a Report per call and the per-layer rand sources became
// first-draw seeded; neither may move one bit of it.
const spatialGoldenDigest = "08bc33a7ff67d92c3da367cac47b2e70aa952e944bb3bcdba31602218e6e9fa2"

// spatialGoldenHours is the simulated cost of the same run per worker count.
var spatialGoldenHours = map[int]float64{1: 0.12416666666666666, 4: 0.07083333333333333}

// TestSpatialCoSearchGolden is TestAscendCoSearchGolden's twin on the
// open-source platform: a small UNICO run on Edge MobileNet, bit for bit and
// at either worker count.
func TestSpatialCoSearchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest captured on amd64; other architectures may fuse multiply-adds")
	}
	for workers, hours := range spatialGoldenHours {
		p := NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
		opt := core.UNICOOptions(5, 3, 40, 9)
		opt.Workers = workers
		res := core.RunContext(context.Background(), p, opt)
		if len(res.All) != 15 || len(res.Front) == 0 {
			t.Fatalf("workers=%d: %d candidates, front of %d", workers, len(res.All), len(res.Front))
		}
		if got := resultDigest(res); got != spatialGoldenDigest {
			t.Errorf("workers=%d: result digest %s, want %s", workers, got, spatialGoldenDigest)
		}
		if res.Hours != hours {
			t.Errorf("workers=%d: simulated hours %v, want %v", workers, res.Hours, hours)
		}
	}
}

// cloudGoldenDigests pins a small UNICO run on Cloud ResNet + Bert for each
// searcher of the open-source platform. Cloud's layer bounds run past every
// tile ladder Edge MobileNet reaches, and the genetic searcher exercises
// Crossover and Mutate, which TestSpatialCoSearchGolden never calls. Captured
// on the commit before each layer's tile ladders were built once per
// workload and an annealer stopped re-evaluating its current schedule.
var cloudGoldenDigests = map[mapsearch.Algo]string{
	mapsearch.FlexTensorLike: "c80c12003e16085ccf0dc6ebfa53419e84e468895352c5771de44852b86def2c",
	mapsearch.GammaLike:      "654d94da7d69890ec3fe7d9876dbebfea391210c7e9f32f3f98767004912d540",
}

// cloudGoldenHours is the simulated cost of either run per worker count.
var cloudGoldenHours = map[int]float64{1: 0.17816666666666664, 4: 0.10083333333333332}

// TestSpatialCloudCoSearchGolden holds the Cloud co-search of both spatial
// searchers bit for bit, at either worker count.
func TestSpatialCloudCoSearchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest captured on amd64; other architectures may fuse multiply-adds")
	}
	var ws []workload.Workload
	for _, name := range []string{"ResNet", "Bert"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for algo, digest := range cloudGoldenDigests {
		for workers, hours := range cloudGoldenHours {
			p := NewSpatial(hw.Cloud, ws, algo)
			opt := core.UNICOOptions(5, 3, 40, 9)
			opt.Workers = workers
			res := core.RunContext(context.Background(), p, opt)
			if len(res.All) != 15 || len(res.Front) == 0 {
				t.Fatalf("%v workers=%d: %d candidates, front of %d", algo, workers, len(res.All), len(res.Front))
			}
			if got := resultDigest(res); got != digest {
				t.Errorf("%v workers=%d: result digest %s, want %s", algo, workers, got, digest)
			}
			if res.Hours != hours {
				t.Errorf("%v workers=%d: simulated hours %v, want %v", algo, workers, res.Hours, hours)
			}
		}
	}
}
