package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"unico"
	"unico/internal/camodel"
	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/evalcache"
	"unico/internal/fleet"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/workload"
)

// runSeconds is the run length BENCHMARK.json declares. The rep counts below
// are sized so the timed reps of one run take about that long on the 2-core
// sandbox this benchmark was defined on; -seconds scales them in proportion.
// Rep counts are constants, not a time budget, so two commits measured with
// the same -seconds and -seed do exactly the same work. The length is what
// the time allowed for all of the driver's runs leaves to four workloads: the
// host takes cores away for half a minute at a time, and a run much shorter
// than that sits wholly inside or outside such a burst.
const runSeconds = 25

// workers is the closed-loop load of a workload unless its spec says
// otherwise: the mapping-search pool and the acquisition pool both run two
// goroutines (nproc = 2 on the reference sandbox).
const workers = 2

// fleetShards is the number of dist.Server shards behind the router of
// fleet3_edge.
const fleetShards = 3

type platformKind int

const (
	kindSpatial platformKind = iota
	kindAscend
	kindFleet
)

// spec is one benchmark workload: a co-search configuration, how many timed
// co-searches one run makes, and the frozen constants its checks compare
// against.
type spec struct {
	name     string
	kind     platformKind
	scenario hw.Scenario
	networks []string
	// batch, iters and bmax are N, the MOBO iterations and b_max.
	batch, iters, bmax int
	// local keeps the workload out of BENCHMARK.json: it runs by name and in
	// a full run, but the driver does not gate on it. The time allowed for
	// all of the driver's runs holds four workloads at a run length that is
	// steady on this machine, not six.
	local bool
	// workers is Workers and SearchWorkers of every co-search.
	workers int
	// cache reaches the engine through evalcache.
	cache bool
	// durable turns on the checkpoint journal/snapshots and the flight
	// recorder, both fsynced into the scratch directory.
	durable bool
	// sameAs names the workload whose result digest this one must reproduce
	// at equal search seeds ("" = none): the same search through another
	// path (a cache, a fleet).
	sameAs string
	// reps is the number of timed co-searches per run at runSeconds. Each
	// uses its own search seed derived from the run seed, so the reported
	// median is over searches, not over repeats of one search: the cost of a
	// co-search swings by tens of percent with its seed (how many samples the
	// high-fidelity rule admits sets the surrogate's size), and one seed per
	// run would make the run's number as unsteady as that.
	reps int
	// setups is how many times a timed run sets the workload up; setup_s is
	// the median, so one cold first round does not decide it. Cheap set-ups swing the most and are repeated the most: about
	// two seconds per run go to set-up on every workload.
	setups int
	// ref is the hypervolume reference point over (latency ms, power mW,
	// area mm²); front points at or beyond it in any coordinate do not count.
	ref [3]float64
	// simHours and evals are the simulated cost and the evaluation count of
	// one co-search. Both are fixed by the successive-halving schedule, not
	// by the seed, so they are frozen here and checked on every rep: no
	// host-side change may move the paper's Cost(h).
	simHours float64
	evals    int
}

// specs lists the workloads in the order a full run reports them. The "why"
// of each is in BENCHMARK.json and bench/README.md.
var specs = []spec{
	{
		name: "edge_paper", kind: kindSpatial, scenario: hw.Edge,
		networks: []string{"MobileNet"},
		batch:    30, iters: 10, bmax: 300, workers: workers,
		reps: 11, setups: 5, ref: [3]float64{1000, 2200, 25},
		simHours: 3.8983333333333343, evals: 14660,
	},
	{
		// One worker, not two: an iteration is three candidates and some ten
		// milliseconds, so two workers meet at a barrier every few milliseconds
		// and the wall-clock time follows whichever core the host takes away.
		// One worker keeps the surrogate writes and the fsyncs, which this
		// workload is for, on the clock; with a core taken away in bursts the
		// spread between runs was 18 % against 33 % at two workers.
		name: "edge_long_durable", local: true, kind: kindSpatial, scenario: hw.Edge,
		networks: []string{"MobileNet"},
		batch:    3, iters: 48, bmax: 10, workers: 1, durable: true,
		reps: 40, setups: 21, ref: [3]float64{1000, 2200, 25},
		simHours: 0.49333333333333335, evals: 960,
	},
	{
		name: "cloud_mapping", kind: kindSpatial, scenario: hw.Cloud,
		networks: []string{"ResNet", "VGG", "Bert", "Xception", "UNet", "VIT"},
		batch:    30, iters: 3, bmax: 300, workers: workers,
		reps: 36, setups: 11, ref: [3]float64{200000, 22000, 5000},
		simHours: 5.422966666666667, evals: 4398,
	},
	{
		name: "cloud_mapping_cached", local: true, kind: kindSpatial, scenario: hw.Cloud,
		networks: []string{"ResNet", "VGG", "Bert", "Xception", "UNet", "VIT"},
		batch:    30, iters: 3, bmax: 300, workers: workers, cache: true, sameAs: "cloud_mapping",
		reps: 18, setups: 5, ref: [3]float64{200000, 22000, 5000},
		simHours: 5.422966666666667, evals: 4398,
	},
	{
		name: "ascend_dleu", kind: kindAscend,
		networks: []string{"DLEU"},
		batch:    8, iters: 6, bmax: 200, workers: workers,
		reps: 16, setups: 5, ref: [3]float64{3000, 10000, 220},
		simHours: 700.0083333333333, evals: 4800,
	},
	{
		name: "fleet3_edge", kind: kindFleet, scenario: hw.Edge,
		networks: []string{"MobileNet"},
		batch:    30, iters: 10, bmax: 300, workers: workers, sameAs: "edge_paper",
		reps: 9, setups: 5, ref: [3]float64{1000, 2200, 25},
		simHours: 3.8983333333333343, evals: 14660,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to smoke-test size: the same layers are crossed,
// nothing is representative, and the frozen constants no longer apply.
func (s spec) quick() spec {
	s.batch = min(s.batch, 4)
	s.iters = min(s.iters, 3)
	s.bmax = min(s.bmax, 10)
	s.reps, s.setups = 1, 1
	s.simHours, s.evals = 0, 0
	return s
}

// repsFor scales the rep count to a run length, never below three so a
// median always has a sample on either side.
func (s spec) repsFor(seconds int) int {
	n := (s.reps*seconds + runSeconds/2) / runSeconds
	return max(n, min(s.reps, 3))
}

// searchSeed derives the search seed of one rep from the run seed
// (splitmix64): distinct, well-spread and never zero, which the facade would
// read as "default".
func searchSeed(runSeed int64, rep int) int64 {
	z := uint64(runSeed)*0x9E3779B97F4A7C15 + uint64(rep+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// config is the facade configuration of one co-search of the workload.
func (s spec) config(seed int64, files durableFiles) unico.Config {
	return unico.Config{
		Method:           unico.MethodUNICO,
		BatchSize:        s.batch,
		Iterations:       s.iters,
		BudgetMax:        s.bmax,
		Workers:          s.workers,
		SearchWorkers:    s.workers,
		Seed:             seed,
		Cache:            s.cache,
		CheckpointFile:   files.checkpoint,
		CheckpointEvery:  checkpointEvery,
		FlightRecordFile: files.flight,
	}
}

// options is the same co-search for core.RunContext — what the facade builds
// from config, minus the sinks and cache the traced run installs itself.
func (s spec) options(seed int64) core.Options {
	opt := core.UNICOOptions(s.batch, s.iters, s.bmax, seed)
	opt.Workers = s.workers
	opt.SearchWorkers = s.workers
	opt.CheckpointEvery = checkpointEvery
	return opt
}

const checkpointEvery = 10

// durableFiles are the artifacts of one durable co-search; the zero value
// turns persistence off.
type durableFiles struct{ checkpoint, flight string }

// env is a workload's set-up: the platform its co-searches run on and what
// has to be torn down afterwards.
type env struct {
	spec spec
	// timed is the facade platform of the untraced reps.
	timed *unico.Platform
	// traced is the same platform type for core.RunContext with the trace
	// wrappers installed; nil unless the environment was built with a tracer.
	traced core.Platform
	// withFreshCache rebuilds traced with its engine behind a new evalcache,
	// as the facade does for every co-search; nil when the workload has no
	// cache.
	withFreshCache func() (core.Platform, *evalcache.Cache)
	dir            string
	fleet          *fleetEnv
}

// fleetEnv is the in-process fleet of fleet3_edge: three dist.Server shards
// and one fleet.Router, each on its own loopback listener.
type fleetEnv struct {
	shards  []*dist.Server
	servers []*httptest.Server // shards first, router last
	router  *httptest.Server
}

func (f *fleetEnv) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// jobsLeft is the number of mapping-search jobs still held by any shard.
func (f *fleetEnv) jobsLeft() int {
	n := 0
	for _, s := range f.shards {
		n += s.JobCount()
	}
	return n
}

// newFleet starts the shards and the router. With a tracer, every shard and
// the router are wrapped in timing handlers and the shards' engine counts
// its calls; without one nothing is wrapped.
func newFleet(tr *tracer) (*fleetEnv, error) {
	f := &fleetEnv{}
	urls := make([]string, fleetShards)
	for i := range urls {
		var eng mapsearch.SpatialEngine = maestro.Engine{}
		if tr != nil {
			eng = tr.spatialEngine("maestro", eng)
		}
		srv := dist.NewServerWith(eng, camodel.Engine{})
		h := srv.Handler()
		if tr != nil {
			h = tr.handler(fmt.Sprintf("dist.serve/%d", i), h)
		}
		ts := httptest.NewServer(h)
		f.shards = append(f.shards, srv)
		f.servers = append(f.servers, ts)
		urls[i] = ts.URL
	}
	router, err := fleet.NewRouter(urls, fleet.Options{})
	if err != nil {
		f.close()
		return nil, err
	}
	h := router.Handler()
	if tr != nil {
		h = tr.handler("fleet.route", h)
	}
	f.router = httptest.NewServer(h)
	f.servers = append(f.servers, f.router)
	return f, nil
}

// setUp builds the workload's platform (and fleet, and scratch directory)
// under scratch. tr, when non-nil, also builds the traced platform.
func setUp(s spec, scratch string, tr *tracer) (*env, error) {
	e := &env{spec: s}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if s.durable {
		dir, err := os.MkdirTemp(scratch, s.name+"-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
	}
	ws := make([]workload.Workload, len(s.networks))
	for i, n := range s.networks {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	var err error
	switch s.kind {
	case kindSpatial:
		e.timed, err = unico.OpenSourcePlatform(s.scenario, s.networks...)
		if tr != nil {
			p := platform.NewSpatial(s.scenario, ws, mapsearch.FlexTensorLike)
			bare := tr.spatialEngine("maestro", p.Engine)
			p.Engine = bare
			e.traced = tr.platform(p)
			if s.cache {
				e.withFreshCache = func() (core.Platform, *evalcache.Cache) {
					c := evalcache.New(0)
					cp := *p
					cp.Engine = tr.spatialEngine("evalcache", evalcache.Spatial{Inner: bare, Cache: c})
					return tr.platform(&cp), c
				}
			}
		}
	case kindAscend:
		e.timed, err = unico.AscendLikePlatform(s.networks...)
		if tr != nil {
			p := platform.NewAscend(ws, mapsearch.DepthFirst)
			p.Engine = tr.ascendEngine("camodel", p.Engine)
			e.traced = tr.platform(p)
		}
	case kindFleet:
		if e.fleet, err = newFleet(tr); err != nil {
			return nil, err
		}
		e.timed, err = unico.RemoteOpenSourcePlatform(s.scenario, []string{e.fleet.router.URL}, unico.RemoteOptions{}, s.networks...)
		if err == nil && tr != nil {
			hc := &http.Client{Timeout: dist.DefaultTimeout, Transport: tr.roundTripper(http.DefaultTransport)}
			client := dist.NewClientOptions(e.fleet.router.URL, hc, dist.Options{})
			var rp *dist.RemoteSpatialPlatform
			rp, err = dist.NewRemoteSpatialPlatform([]*dist.Client{client}, s.scenario, s.networks)
			if err == nil {
				e.traced = tr.platform(rp)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// files names the artifacts of the next durable co-search, fresh per call so
// no co-search resumes or appends to another's.
func (e *env) files(tag string) durableFiles {
	if e.dir == "" {
		return durableFiles{}
	}
	return durableFiles{
		checkpoint: filepath.Join(e.dir, tag+".ckpt"),
		flight:     filepath.Join(e.dir, tag+".flight.jsonl"),
	}
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // scratch; the parent directory is removed by main anyway
	}
}
