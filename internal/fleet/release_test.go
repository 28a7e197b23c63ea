package fleet

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/sh"
)

// newHeldFleet is newTestFleet over plain workers, which it also returns,
// in shard order, so a test can read what each one holds.
func newHeldFleet(t *testing.T, n int, opts Options) (*Router, *httptest.Server, []*testShard, []*dist.Server) {
	t.Helper()
	var workers []*dist.Server
	router, rsrv, shards := newTestFleet(t, n, opts, func() http.Handler {
		w := dist.NewServer()
		workers = append(workers, w)
		return w.Handler()
	})
	return router, rsrv, shards, workers
}

// TestReleaseReachesEveryCopy: a job advanced while its owner shard was
// unreachable has a second copy on the shard that took over, and once the
// owner is back, closing the run's jobs leaves no job on any shard. (A
// release once walked the ring to the first shard holding the job, and the
// copy on the other stayed until that worker restarted.)
func TestReleaseReachesEveryCopy(t *testing.T) {
	router, rsrv, shards, workers := newHeldFleet(t, 3, Options{FailAfter: 1})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{dist.NewClient(rsrv.URL, nil)}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	spec := jobHomedAt(t, router, shards[0].url, 1)
	job := p.NewJob(spec.X, spec.Seed)
	job.Advance(2)
	if n := workers[0].JobCount(); n != 1 {
		t.Fatalf("the owner holds %d jobs after the first advance, want 1", n)
	}

	shards[0].inj.SetDown(true)
	job.Advance(2) // the owner is unreachable: the next shard builds a copy
	shards[0].inj.SetDown(false)
	router.ProbeAll(context.Background())
	copies := 0
	for _, w := range workers {
		copies += w.JobCount()
	}
	if _, ok := job.Best(); copies != 2 || job.Spent() != 4 || !ok {
		t.Fatalf("%d copies of a job at %d (feasible %v); want 2 at 4", copies, job.Spent(), ok)
	}
	if m := router.Members()[0]; m.State != "active" {
		t.Fatalf("the owner is %s after answering its probe", m.State)
	}

	core.CloseJobs([]mapsearch.Searcher{job})
	for i, w := range workers {
		if n := w.JobCount(); n != 0 {
			t.Errorf("shard %d holds %d jobs after the run closed its jobs", i, n)
		}
	}
}

// TestOneReleasePerIteration pins the traffic of one co-search iteration
// through a router: the master sends exactly one advance per alive job per
// rung and, once the batch is closed, one release naming all of it (it sent
// one release per job before the pool batched them).
func TestOneReleasePerIteration(t *testing.T) {
	router, _, _, workers := newHeldFleet(t, 2, Options{})
	var mu sync.Mutex
	paths := map[string]int{}
	h := router.Handler()
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{dist.NewClient(counted.URL, nil)}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	jobs := make([]mapsearch.Searcher, 8)
	for i := range jobs {
		jobs[i] = p.NewJob(p.Space().Sample(rng), int64(i))
	}
	out := sh.Run(context.Background(), jobs, sh.Config{PFrac: 0.15, BMax: 12, Workers: 2})
	core.CloseJobs(jobs)

	advances := 0
	for _, alive := range out.RungAlive {
		advances += alive
	}
	want := map[string]int{"POST /v1/jobs/advance": advances, "POST /v1/jobs/release": 1}
	mu.Lock()
	defer mu.Unlock()
	if len(out.RungAlive) < 2 || len(paths) != len(want) ||
		paths["POST /v1/jobs/advance"] != advances || paths["POST /v1/jobs/release"] != 1 {
		t.Errorf("rungs %v: the router saw %v, want %v", out.RungAlive, paths, want)
	}
	for i, w := range workers {
		if n := w.JobCount(); n != 0 {
			t.Errorf("shard %d holds %d jobs after the release", i, n)
		}
	}
}
