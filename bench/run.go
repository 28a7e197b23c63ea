package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"unico"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/evalcache"
	"unico/internal/flightrec"
)

// tracedReps and plainReps are the co-searches of a -trace 1 run: the same
// search seed every time, so every count must repeat exactly and the traced
// result must equal the untraced one.
const (
	tracedReps = 3
	plainReps  = 2
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload prints as its last line: the result
// contract of BENCHMARK.json.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a run knows beyond its report; the full-suite mode collects
// it (through -out) for bench/README.md and -compare.
type detail struct {
	// Notes are remarks that are not failures: percentiles with too few
	// samples behind them.
	Notes    []string             `json:"notes,omitempty"`
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Report   report               `json:"report"`
	Samples  map[string][]float64 `json:"samples,omitempty"` // per-rep values behind the medians
	Digests  []string             `json:"digests,omitempty"` // result digest of every rep
	Failures []string             `json:"failures,omitempty"`
}

// cpuSeconds is the user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runner carries one run's bookkeeping: what was attempted, what failed and
// why.
type runner struct {
	spec      spec
	seed      int64
	scratch   string
	quick     bool // spec is already shrunk; reference workloads must be too
	attempted int
	failed    int
	failures  []string
}

// attempt counts one co-search and records every problem it had; a
// co-search with any problem is one failure.
func (r *runner) attempt(what string, problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
	}
	for _, p := range problems {
		r.failures = append(r.failures, what+": "+p)
	}
}

// timedSearch runs one untraced co-search through the facade and measures
// it. The collection before it keeps one rep's garbage out of the next
// rep's time.
func timedSearch(ctx context.Context, e *env, cfg unico.Config) (wall, cpu float64, out outcome, err error) {
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := now()
	res, err := unico.OptimizeContext(ctx, e.timed, cfg)
	wall = now().Sub(t0).Seconds()
	cpu = cpuSeconds() - cpu0
	if err != nil {
		return wall, cpu, outcome{}, err
	}
	return wall, cpu, fromFacade(res), nil
}

// warmUp is the discarded co-search of a set-up: the workload's own search
// cut to its first third, enough to fill the process-wide memo tables, the
// pools and the heap.
func warmUp(ctx context.Context, e *env, seed int64) error {
	cfg := e.spec.config(seed, e.files("warmup"))
	cfg.Iterations = (e.spec.iters + 2) / 3
	_, err := unico.OptimizeContext(ctx, e.timed, cfg)
	return err
}

// setUpTimed sets the workload up rounds times, tearing down all but the
// last, and returns that environment with the median set-up time.
func (r *runner) setUpTimed(ctx context.Context, tr *tracer, rounds int) (*env, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := now()
		e, err := setUp(r.spec, r.scratch, tr)
		if err == nil {
			if err = warmUp(ctx, e, searchSeed(r.seed, -1)); err != nil {
				e.close()
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, now().Sub(t0).Seconds())
		if i == rounds-1 {
			return e, median(times), nil
		}
		e.close()
	}
}

// runTimed is a -trace 0 run: set-up, the timed reps with nothing wrapped,
// then the checks. It reports the end-to-end metrics.
func (r *runner) runTimed(ctx context.Context, seconds int) (detail, error) {
	e, setupS, err := r.setUpTimed(ctx, nil, r.spec.setups)
	if err != nil {
		return detail{}, err
	}
	defer e.close()

	reps := r.spec.repsFor(seconds)
	var walls, cpus, hvs []float64
	var digests []string
	for rep := 0; rep < reps; rep++ {
		what := fmt.Sprintf("rep %d", rep)
		files := e.files(fmt.Sprintf("rep%d", rep))
		wall, cpu, out, err := timedSearch(ctx, e, r.spec.config(searchSeed(r.seed, rep), files))
		if err != nil {
			r.attempt(what, []string{err.Error()})
			continue
		}
		r.attempt(what, append(checkOutcome(r.spec, out), checkArtifacts(e, files)...))
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		hvs = append(hvs, hypervolume(out, r.spec.ref))
		digests = append(digests, out.digest())
	}
	if len(walls) == 0 {
		return detail{}, fmt.Errorf("no co-search of %s succeeded: %s", r.spec.name, strings.Join(r.failures, "; "))
	}

	d := r.detail(false, map[string]metric{
		"setup_s":           {setupS, "s"},
		"cosearch_wall_s":   {median(walls), "s"},
		"cosearch_cpu_s":    {median(cpus), "core-s"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
		"front_hypervolume": {median(hvs), "fraction"},
	})
	d.Samples = map[string][]float64{"cosearch_wall_s": walls, "cosearch_cpu_s": cpus, "front_hypervolume": hvs}
	d.Digests = digests
	return d, nil
}

// checkSameAs runs the reference workload once, untimed, at the traced run's
// search seed and holds this workload's result digest to it: the same search
// through another path must give the same result, bit for bit.
func (r *runner) checkSameAs(ctx context.Context, got string) {
	ref, _ := specByName(r.spec.sameAs)
	if r.quick {
		ref = ref.quick()
	}
	what := "reference " + ref.name
	e, err := setUp(ref, r.scratch, nil)
	if err != nil {
		r.attempt(what, []string{err.Error()})
		return
	}
	defer e.close()
	res, err := unico.OptimizeContext(ctx, e.timed, ref.config(searchSeed(r.seed, 0), durableFiles{}))
	if err != nil {
		r.attempt(what, []string{err.Error()})
		return
	}
	var problems []string
	if want := fromFacade(res).digest(); got != want {
		problems = append(problems, fmt.Sprintf("digest %s differs from %s's %s", got, ref.name, want))
	}
	r.attempt(what, problems)
}

// tracedSearch runs one co-search through core.RunContext on the wrapped
// platform, with the sinks and the cache the facade would have installed,
// and analyzes what the wrappers recorded.
func tracedSearch(ctx context.Context, e *env, tr *tracer, rep int, seed int64, files durableFiles) (repTrace, outcome, *evalcache.Cache, error) {
	p := e.traced
	var cache *evalcache.Cache
	if e.withFreshCache != nil {
		p, cache = e.withFreshCache()
	}
	opt := e.spec.options(seed)
	opt.Progress = tr.progress
	var flight *flightrec.Recorder
	if files.checkpoint != "" {
		ck, err := checkpoint.Create(files.checkpoint)
		if err != nil {
			return repTrace{}, outcome{}, nil, err
		}
		defer ck.Close()
		opt.Checkpoint = tr.checkpoint(ck)
		flight, err = flightrec.Create(files.flight, flightrec.Header{
			Method: unico.MethodUNICO.String(), Seed: seed,
			Batch: opt.BatchSize, MaxIter: opt.MaxIter, BMax: opt.BMax,
			Fingerprint: core.FingerprintFor(p, opt),
		})
		if err != nil {
			return repTrace{}, outcome{}, nil, err
		}
		defer flight.Close()
		opt.Flight = tr.flight(flight)
	}

	runtime.GC()
	tr.takeRep()
	before := tr.readEngines()
	start := tr.since()
	res := core.RunContext(ctx, p, opt)
	var err error
	if flight != nil {
		err = flight.Finish(flightrec.Summary{})
	}
	end := tr.since()
	if res.CheckpointErr != nil {
		err = res.CheckpointErr
	}
	if err != nil {
		return repTrace{}, outcome{}, nil, err
	}
	events, searchers := tr.takeRep()
	return analyze(rep, start, end, events, searchers, before, tr.readEngines()), fromCore(res), cache, nil
}

// exactCounts are the counts that must repeat exactly from one traced rep to
// the next. Cache hits and misses are not among them: whether a duplicate
// lookup hits or joins the in-flight computation depends on scheduling.
var exactCounts = []string{
	"mobo.suggest_count", "platform.newjob_count", "mapsearch.advance_count",
	"checkpoint.append_count", "checkpoint.snapshot_count", "flightrec.record_count",
	"dist.request_count", "fleet.route_count", "camodel.evaluate_count",
}

// runTraced is a -trace 1 run: one set-up, then plain and traced co-searches
// of one search seed, alternating so both see the same machine, then the
// reference workload's search when the spec names one. It reports the
// per-layer metrics and, when traceOut is set, writes the spans there.
func (r *runner) runTraced(ctx context.Context, traceOut string) (detail, error) {
	tr := newTracer()
	e, _, err := r.setUpTimed(ctx, tr, 1)
	if err != nil {
		return detail{}, err
	}
	defer e.close()

	seed := searchSeed(r.seed, 0)
	// Engine calls are exact where the search meets them first: in front of
	// the cache when there is one (behind it, misses vary with scheduling).
	engineCalls := "maestro.evaluate_count"
	if r.spec.cache {
		engineCalls = "evalcache.evaluate_count"
	}
	exact := append([]string{engineCalls}, exactCounts...)

	var plainWalls []float64
	var traces []repTrace
	digest := ""
	sameDigest := func(out outcome) []string {
		if digest == "" {
			digest = out.digest()
		} else if out.digest() != digest {
			return []string{fmt.Sprintf("digest %s differs from the first rep's %s", out.digest(), digest)}
		}
		return nil
	}
	for rep := 0; rep < tracedReps; rep++ {
		if rep < plainReps {
			what := fmt.Sprintf("plain rep %d", rep)
			files := e.files(fmt.Sprintf("plain%d", rep))
			wall, _, out, err := timedSearch(ctx, e, r.spec.config(seed, files))
			if err != nil {
				r.attempt(what, []string{err.Error()})
			} else {
				plainWalls = append(plainWalls, wall)
				r.attempt(what, append(sameDigest(out), checkArtifacts(e, files)...))
			}
		}

		what := fmt.Sprintf("traced rep %d", rep)
		files := e.files(fmt.Sprintf("traced%d", rep))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
		rt, out, cache, err := tracedSearch(ctx, e, tr, rep, seed, files)
		if err != nil {
			r.attempt(what, []string{err.Error()})
			continue
		}
		runtime.ReadMemStats(&ms1)
		rt.counts["core.alloc_mb_per_search"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		if cpu := cpuSeconds() - cpu0; cpu > 0 {
			rt.counts["core.gc_cpu_frac"] = (gcCPUSeconds() - gc0) / cpu
		}
		rt.counts["core.sim_cost_h"] = out.hours
		rt.counts["core.evaluations"] = float64(out.evals)
		if cache != nil {
			st := cache.Stats()
			rt.counts["evalcache.hits"] = float64(st.Hits)
			rt.counts["evalcache.misses"] = float64(st.Misses)
			rt.counts["evalcache.hit_rate"] = st.HitRate()
		}

		problems := append(sameDigest(out), checkOutcome(r.spec, out)...)
		problems = append(problems, checkArtifacts(e, files)...)
		if rt.spent != out.evals {
			problems = append(problems, fmt.Sprintf("Evaluations = %d but the traced searchers spent %d", out.evals, rt.spent))
		}
		if n := rt.counts["dist.failed_requests"] + rt.counts["fleet.shed_count"]; n != 0 {
			problems = append(problems, fmt.Sprintf("%v failed or shed requests on a fault-free fleet", n))
		}
		if len(traces) > 0 {
			for _, name := range exact {
				if got, want := rt.counts[name], traces[0].counts[name]; got != want {
					problems = append(problems, fmt.Sprintf("%s = %v, but %v on the first traced rep", name, got, want))
				}
			}
		}
		r.attempt(what, problems)
		traces = append(traces, rt)
	}
	if len(traces) == 0 || len(plainWalls) == 0 {
		return detail{}, fmt.Errorf("no traced co-search of %s succeeded: %s", r.spec.name, strings.Join(r.failures, "; "))
	}
	if r.spec.sameAs != "" {
		r.checkSameAs(ctx, digest)
	}
	if traceOut != "" {
		if err := writeSpansFile(traceOut, traces); err != nil {
			return detail{}, err
		}
	}

	d := r.detail(true, layerMetrics(traces, plainWalls))
	d.Notes = underSampled(traces)
	return d, nil
}

func (r *runner) detail(trace bool, m map[string]metric) detail {
	return detail{
		Workload: r.spec.name, Seed: r.seed, Trace: trace,
		Report:   report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m},
		Failures: r.failures,
	}
}

func writeSpansFile(path string, traces []repTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, traces); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
