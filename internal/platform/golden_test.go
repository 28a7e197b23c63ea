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

// jobRecorder keeps every job NewJob returns, in call order. A co-search
// builds one job per candidate in evaluation order, so jobs[i] is the
// mapping search behind the run's All[i].
type jobRecorder struct {
	core.Platform
	jobs []mapsearch.Searcher
}

func (p *jobRecorder) NewJob(x []float64, seed int64) mapsearch.Searcher {
	job := p.Platform.NewJob(x, seed)
	p.jobs = append(p.jobs, job)
	return job
}

// run executes opt on p and returns the result with the jobs behind its
// candidates.
func run(t *testing.T, p core.Platform, opt core.Options) (core.Result, []mapsearch.Searcher) {
	t.Helper()
	rec := &jobRecorder{Platform: p}
	res := core.RunContext(context.Background(), rec, opt)
	if len(rec.jobs) != len(res.All) {
		t.Fatalf("%d jobs for %d candidates", len(rec.jobs), len(res.All))
	}
	return res, rec.jobs
}

// resultDigest is the SHA-256 of every bit of a co-search result: each
// candidate's X, metrics, sensitivity, feasibility, iteration and whole
// mapping-search history (read from its job) in evaluation order, then the
// front and the evaluation count. The simulated hours stay out: they model
// how many searches overlap, so they are the one field Workers legitimately
// moves.
func resultDigest(res core.Result, jobs []mapsearch.Searcher) string {
	// A front candidate shares its X with the All entry it was copied from.
	jobOf := make(map[*float64]mapsearch.Searcher, len(res.All))
	for i, c := range res.All {
		jobOf[&c.X[0]] = jobs[i]
	}
	h := sha256.New()
	hashCandidates(h, res.All, jobOf)
	hashCandidates(h, res.Front, jobOf)
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

func hashCandidates(h hash.Hash, cs []core.Candidate, jobOf map[*float64]mapsearch.Searcher) {
	hashFloats(h, float64(len(cs)))
	for _, c := range cs {
		history := jobOf[&c.X[0]].History()
		hashFloats(h, float64(len(c.X)))
		hashFloats(h, c.X...)
		hashMetrics(h, c.Metrics)
		feasible := 0.0
		if c.Feasible {
			feasible = 1
		}
		hashFloats(h, c.Sensitivity, feasible, float64(c.Iter), float64(len(history)))
		for _, pt := range history {
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
		res, jobs := run(t, p, opt)
		if len(res.All) != 15 || len(res.Front) == 0 {
			t.Fatalf("workers=%d: %d candidates, front of %d", workers, len(res.All), len(res.Front))
		}
		if got := resultDigest(res, jobs); got != ascendGoldenDigest {
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
		res, jobs := run(t, p, opt)
		if len(res.All) != 15 || len(res.Front) == 0 {
			t.Fatalf("workers=%d: %d candidates, front of %d", workers, len(res.All), len(res.Front))
		}
		if got := resultDigest(res, jobs); got != spatialGoldenDigest {
			t.Errorf("workers=%d: result digest %s, want %s", workers, got, spatialGoldenDigest)
		}
		if res.Hours != hours {
			t.Errorf("workers=%d: simulated hours %v, want %v", workers, res.Hours, hours)
		}
	}
}

// cloudGoldenDigest pins a small UNICO run on Cloud ResNet + Bert. Cloud's
// layer bounds run past every tile ladder Edge MobileNet reaches. Captured
// on the commit before each layer's tile ladders were built once per
// workload and an annealer stopped re-evaluating its current schedule.
const cloudGoldenDigest = "c80c12003e16085ccf0dc6ebfa53419e84e468895352c5771de44852b86def2c"

// cloudGoldenHours is the simulated cost of the run per worker count.
var cloudGoldenHours = map[int]float64{1: 0.17816666666666664, 4: 0.10083333333333332}

// TestSpatialCloudCoSearchGolden holds the Cloud co-search bit for bit, at
// either worker count.
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
	for workers, hours := range cloudGoldenHours {
		p := NewSpatial(hw.Cloud, ws, mapsearch.FlexTensorLike)
		opt := core.UNICOOptions(5, 3, 40, 9)
		opt.Workers = workers
		res, jobs := run(t, p, opt)
		if len(res.All) != 15 || len(res.Front) == 0 {
			t.Fatalf("workers=%d: %d candidates, front of %d", workers, len(res.All), len(res.Front))
		}
		if got := resultDigest(res, jobs); got != cloudGoldenDigest {
			t.Errorf("workers=%d: result digest %s, want %s", workers, got, cloudGoldenDigest)
		}
		if res.Hours != hours {
			t.Errorf("workers=%d: simulated hours %v, want %v", workers, res.Hours, hours)
		}
	}
}
