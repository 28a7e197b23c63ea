package telemetry

import "sync"

// Well-known global metrics of the co-optimizer, all living in
// DefaultRegistry. Hot paths cache the returned pointers in package vars so
// the registry lookup happens once per process.

var (
	ppaEvalsMu sync.Mutex
	ppaEvals   = map[string]*Counter{}
	ppaInfeas  = map[string]*Counter{}
)

// PPAEvals counts PPA-engine evaluations for one engine
// ("maestro", "camodel", ...).
func PPAEvals(engine string) *Counter {
	ppaEvalsMu.Lock()
	defer ppaEvalsMu.Unlock()
	c := ppaEvals[engine]
	if c == nil {
		c = DefaultRegistry.Counter("unico_ppa_evals_total",
			"PPA-engine evaluations by engine.", Labels{"engine": engine})
		ppaEvals[engine] = c
	}
	return c
}

var (
	ppaEvalSecondsMu sync.Mutex
	ppaEvalSeconds   = map[string]*Histogram{}
)

// ppaEvalBuckets span host-side evaluation latencies from the analytical
// models (tens of µs) through cycle-level simulation (ms) to remote round
// trips with retries (seconds).
var ppaEvalBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// PPAEvalSampleEvery is the sampling period of the in-process engines'
// latency histogram: an analytical evaluation costs about as much as reading
// the clock twice and observing the result, so "maestro" and "camodel" time
// the calls whose PPAEvals count is a multiple of it. The counters stay exact.
const PPAEvalSampleEvery = 64

// PPAEvalSeconds observes host-side (wall-clock, not simulated) PPA
// evaluation latency for one engine: every "dist" request, and one
// "maestro" or "camodel" call in PPAEvalSampleEvery.
func PPAEvalSeconds(engine string) *Histogram {
	ppaEvalSecondsMu.Lock()
	defer ppaEvalSecondsMu.Unlock()
	h := ppaEvalSeconds[engine]
	if h == nil {
		h = DefaultRegistry.Histogram("unico_ppa_eval_seconds",
			"Host-side PPA evaluation latency by engine.", ppaEvalBuckets,
			Labels{"engine": engine})
		ppaEvalSeconds[engine] = h
	}
	return h
}

// PPAInfeasible counts PPA evaluations rejected as infeasible, per engine.
func PPAInfeasible(engine string) *Counter {
	ppaEvalsMu.Lock()
	defer ppaEvalsMu.Unlock()
	c := ppaInfeas[engine]
	if c == nil {
		c = DefaultRegistry.Counter("unico_ppa_infeasible_total",
			"PPA evaluations rejected as infeasible, by engine.", Labels{"engine": engine})
		ppaInfeas[engine] = c
	}
	return c
}

var (
	mapStepsOnce sync.Once
	mapSteps     *Counter
)

// MapSearchSteps counts software-mapping layer search steps.
func MapSearchSteps() *Counter {
	mapStepsOnce.Do(func() {
		mapSteps = DefaultRegistry.Counter("unico_mapsearch_steps_total",
			"Software-mapping layer search steps.", nil)
	})
	return mapSteps
}

var (
	gpFitsOnce sync.Once
	gpFits     *Counter
)

// GPFits counts Gaussian-process surrogate fits.
func GPFits() *Counter {
	gpFitsOnce.Do(func() {
		gpFits = DefaultRegistry.Counter("unico_gp_fits_total",
			"Gaussian-process surrogate fits.", nil)
	})
	return gpFits
}

var (
	gpExtendsOnce sync.Once
	gpExtends     *Counter
)

// GPExtends counts incremental Gaussian-process surrogate extends — the
// one-observation Cholesky-border updates that replaced a full refit.
func GPExtends() *Counter {
	gpExtendsOnce.Do(func() {
		gpExtends = DefaultRegistry.Counter("unico_gp_extends_total",
			"Incremental Gaussian-process surrogate extends.", nil)
	})
	return gpExtends
}

var (
	moboItersOnce sync.Once
	moboIters     *Counter
)

// MOBOIterations counts completed MOBO outer iterations.
func MOBOIterations() *Counter {
	moboItersOnce.Do(func() {
		moboIters = DefaultRegistry.Counter("unico_mobo_iterations_total",
			"Completed MOBO outer iterations.", nil)
	})
	return moboIters
}

var (
	moboAdmittedOnce sync.Once
	moboAdmitted     *Counter
)

// MOBOAdmitted counts samples admitted to the surrogate training set.
func MOBOAdmitted() *Counter {
	moboAdmittedOnce.Do(func() {
		moboAdmitted = DefaultRegistry.Counter("unico_mobo_admitted_total",
			"Samples admitted to the surrogate training set.", nil)
	})
	return moboAdmitted
}

var (
	moboTrainOnce sync.Once
	moboTrain     *Gauge
)

// MOBOTrainSize gauges the surrogate training-set size.
func MOBOTrainSize() *Gauge {
	moboTrainOnce.Do(func() {
		moboTrain = DefaultRegistry.Gauge("unico_mobo_train_size",
			"Surrogate training-set size.", nil)
	})
	return moboTrain
}

var (
	moboUULOnce sync.Once
	moboUUL     *Gauge
)

// MOBOUUL gauges the current Upper Update Limit of the high-fidelity rule.
func MOBOUUL() *Gauge {
	moboUULOnce.Do(func() {
		moboUUL = DefaultRegistry.Gauge("unico_mobo_uul",
			"Current Upper Update Limit of the high-fidelity rule.", nil)
	})
	return moboUUL
}

var (
	shRungsOnce sync.Once
	shRungs     *Counter
)

// SHRungs counts successive-halving rungs executed.
func SHRungs() *Counter {
	shRungsOnce.Do(func() {
		shRungs = DefaultRegistry.Counter("unico_sh_rungs_total",
			"Successive-halving rungs executed.", nil)
	})
	return shRungs
}

var (
	shSurvivorsOnce sync.Once
	shSurvivors     *Gauge
)

// SHSurvivors gauges the candidates alive after the most recent rung.
func SHSurvivors() *Gauge {
	shSurvivorsOnce.Do(func() {
		shSurvivors = DefaultRegistry.Gauge("unico_sh_rung_survivors",
			"Candidates alive after the most recent successive-halving rung.", nil)
	})
	return shSurvivors
}

var (
	distJobsOnce sync.Once
	distJobs     *Gauge
)

// DistJobs gauges the mapping-search jobs currently held by a worker.
func DistJobs() *Gauge {
	distJobsOnce.Do(func() {
		distJobs = DefaultRegistry.Gauge("unico_dist_jobs",
			"Mapping-search jobs currently held by this worker.", nil)
	})
	return distJobs
}

var (
	cacheOnce    sync.Once
	cacheHits    *Counter
	cacheMisses  *Counter
	cacheWaits   *Counter
	cacheEntries *Gauge
)

func cacheMetrics() {
	cacheOnce.Do(func() {
		cacheHits = DefaultRegistry.Counter("unico_evalcache_hits_total",
			"PPA evaluations served from the content-addressed cache.", nil)
		cacheMisses = DefaultRegistry.Counter("unico_evalcache_misses_total",
			"PPA evaluations computed by an engine and stored in the cache.", nil)
		cacheWaits = DefaultRegistry.Counter("unico_evalcache_inflight_waits_total",
			"PPA evaluations deduplicated against an identical in-flight computation.", nil)
		cacheEntries = DefaultRegistry.Gauge("unico_evalcache_entries",
			"Entries currently held by the PPA evaluation cache.", nil)
	})
}

// EvalCacheHits counts PPA evaluations served from the evaluation cache.
func EvalCacheHits() *Counter { cacheMetrics(); return cacheHits }

// EvalCacheMisses counts PPA evaluations the cache had to compute and store.
func EvalCacheMisses() *Counter { cacheMetrics(); return cacheMisses }

// EvalCacheInflightWaits counts evaluations that joined (waited on) an
// identical in-flight computation instead of recomputing it.
func EvalCacheInflightWaits() *Counter { cacheMetrics(); return cacheWaits }

// EvalCacheEntries gauges the current entry count of the evaluation cache.
func EvalCacheEntries() *Gauge { cacheMetrics(); return cacheEntries }

var (
	distClientOnce  sync.Once
	distRetries     *Counter
	distEvictions   *Counter
	distReadmission *Counter
)

func distClientMetrics() {
	distClientOnce.Do(func() {
		distRetries = DefaultRegistry.Counter("unico_dist_retries_total",
			"Master-side HTTP retries against worker nodes.", nil)
		distEvictions = DefaultRegistry.Counter("unico_dist_worker_evictions_total",
			"Workers evicted from the rotation after consecutive failures.", nil)
		distReadmission = DefaultRegistry.Counter("unico_dist_worker_readmissions_total",
			"Evicted workers re-admitted after a successful probe.", nil)
	})
}

// DistRetries counts master-side HTTP retries against worker nodes.
func DistRetries() *Counter { distClientMetrics(); return distRetries }

var (
	ckptOnce      sync.Once
	ckptRecords   *Counter
	ckptSnapshots *Counter
	ckptResumes   *Counter
	ckptErrors    *Counter
	ckptTorn      *Counter
)

func checkpointMetrics() {
	ckptOnce.Do(func() {
		ckptRecords = DefaultRegistry.Counter("unico_checkpoint_records_total",
			"Iteration records appended to the write-ahead journal.", nil)
		ckptSnapshots = DefaultRegistry.Counter("unico_checkpoint_snapshots_total",
			"Atomic state snapshots written.", nil)
		ckptResumes = DefaultRegistry.Counter("unico_checkpoint_resumes_total",
			"Runs resumed from a checkpoint.", nil)
		ckptErrors = DefaultRegistry.Counter("unico_checkpoint_errors_total",
			"Checkpoint write failures (checkpointing disables itself after the first).", nil)
		ckptTorn = DefaultRegistry.Counter("unico_checkpoint_torn_records_total",
			"Torn trailing journal records detected and truncated on load.", nil)
	})
}

// CheckpointRecords counts journal records appended.
func CheckpointRecords() *Counter { checkpointMetrics(); return ckptRecords }

// CheckpointSnapshots counts atomic snapshots written.
func CheckpointSnapshots() *Counter { checkpointMetrics(); return ckptSnapshots }

// CheckpointResumes counts runs resumed from a checkpoint.
func CheckpointResumes() *Counter { checkpointMetrics(); return ckptResumes }

// CheckpointErrors counts checkpoint write failures.
func CheckpointErrors() *Counter { checkpointMetrics(); return ckptErrors }

// CheckpointTornRecords counts torn trailing journal records truncated on
// load (the expected residue of a crash mid-append).
func CheckpointTornRecords() *Counter { checkpointMetrics(); return ckptTorn }

var (
	cacheSkipOnce sync.Once
	cacheSkipped  *Counter
)

// EvalCacheSkippedLines counts malformed or truncated JSONL lines skipped
// while loading a persisted evaluation cache (the residue of a crash
// mid-append; the loader tolerates and counts them).
func EvalCacheSkippedLines() *Counter {
	cacheSkipOnce.Do(func() {
		cacheSkipped = DefaultRegistry.Counter("unico_evalcache_skipped_lines_total",
			"Malformed or truncated JSONL lines skipped while loading a persisted cache.", nil)
	})
	return cacheSkipped
}

var (
	runReqMu sync.Mutex
	runReqs  = map[string]*Counter{}
)

// maxRunIDLabels caps the distinct run-ID labels a long-lived worker keeps;
// later runs fold into "other" so the label set cannot grow without bound.
const maxRunIDLabels = 64

// DistRunRequests counts worker requests by originating client run ID (from
// the X-Unico-Run-ID header; "" folds to "unknown").
func DistRunRequests(runID string) *Counter {
	if runID == "" {
		runID = "unknown"
	}
	runReqMu.Lock()
	defer runReqMu.Unlock()
	c := runReqs[runID]
	if c == nil {
		if len(runReqs) >= maxRunIDLabels {
			runID = "other"
			if c = runReqs[runID]; c != nil {
				return c
			}
		}
		c = DefaultRegistry.Counter("unico_dist_run_requests_total",
			"Worker requests by originating client run ID.", Labels{"run_id": runID})
		runReqs[runID] = c
	}
	return c
}

var (
	buildInfoMu sync.Mutex
	buildInfos  = map[string]*Gauge{}
)

// BuildInfo returns the constant-1 build-identity gauge
// unico_build_info{go_version,vcs_rev} — the Prometheus idiom for exposing
// version strings as labels. internal/buildinfo resolves the values from
// the binary's embedded build metadata and sets the gauge once per process.
func BuildInfo(goVersion, vcsRev string) *Gauge {
	key := goVersion + "\x00" + vcsRev
	buildInfoMu.Lock()
	defer buildInfoMu.Unlock()
	g := buildInfos[key]
	if g == nil {
		g = DefaultRegistry.Gauge("unico_build_info",
			"Build identity of this binary (constant 1; the identity is in the labels).",
			Labels{"go_version": goVersion, "vcs_rev": vcsRev})
		buildInfos[key] = g
	}
	return g
}

var (
	phaseMu   sync.Mutex
	phaseWall = map[string]*Histogram{}
	phaseSim  = map[string]*Gauge{}
)

// maxPhaseLabels caps the distinct phase labels the process exports; beyond
// it new phase paths fold into "other" so a pathological caller cannot grow
// the label set without bound.
const maxPhaseLabels = 128

// phaseBuckets span phase span durations from sub-microsecond leaf spans
// (one GP predict) through whole-iteration spans (seconds to a minute).
var phaseBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// PhaseSeconds observes wall-clock time spent in one perfprof phase path
// ("iteration/sh.rung", "gp.fit", ...).
func PhaseSeconds(phase string) *Histogram {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	h := phaseWall[phase]
	if h == nil {
		if len(phaseWall) >= maxPhaseLabels {
			phase = "other"
			if h = phaseWall[phase]; h != nil {
				return h
			}
		}
		h = DefaultRegistry.Histogram("unico_phase_seconds",
			"Wall-clock time spent per profiler phase.", phaseBuckets,
			Labels{"phase": phase})
		phaseWall[phase] = h
	}
	return h
}

// PhaseSimSeconds accumulates simulated-clock time attributed to one
// perfprof phase path (only clocked spans move it; a gauge because the
// attribution is additive across runs in one process).
func PhaseSimSeconds(phase string) *Gauge {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	g := phaseSim[phase]
	if g == nil {
		if len(phaseSim) >= maxPhaseLabels {
			phase = "other"
			if g = phaseSim[phase]; g != nil {
				return g
			}
		}
		g = DefaultRegistry.Gauge("unico_phase_sim_seconds",
			"Simulated-clock seconds attributed per profiler phase.",
			Labels{"phase": phase})
		phaseSim[phase] = g
	}
	return g
}

// DistWorkerEvictions counts workers evicted from the master's rotation.
func DistWorkerEvictions() *Counter { distClientMetrics(); return distEvictions }

// DistWorkerReadmissions counts evicted workers re-admitted after a
// successful probe.
func DistWorkerReadmissions() *Counter { distClientMetrics(); return distReadmission }

var (
	distLostOnce sync.Once
	distLost     *Counter
)

// DistLostEvals counts evaluations lost for good on the master side: a
// candidate whose mapping-search job could not be placed on any worker, or
// whose job latched a transport error mid-search. The fleet's robustness
// contract is that this counter stays at zero through shard kill, restart
// and drain — the CI chaos smoke gates on it.
func DistLostEvals() *Counter {
	distLostOnce.Do(func() {
		distLost = DefaultRegistry.Counter("unico_dist_lost_evals_total",
			"Candidate evaluations lost to unrecoverable worker failures.", nil)
	})
	return distLost
}

var (
	fleetShardMu sync.Mutex
	fleetQueue   = map[string]*Gauge{}
)

// maxShardLabels caps the distinct shard labels a router exports; fleets are
// operator-configured and small, so the cap only guards against a
// misconfigured caller generating shard IDs dynamically.
const maxShardLabels = 256

// FleetQueueDepth gauges one shard's admission pressure: requests currently
// forwarded plus requests waiting in its bounded admission queue.
func FleetQueueDepth(shard string) *Gauge {
	fleetShardMu.Lock()
	defer fleetShardMu.Unlock()
	g := fleetQueue[shard]
	if g == nil {
		if len(fleetQueue) >= maxShardLabels {
			shard = "other"
			if g = fleetQueue[shard]; g != nil {
				return g
			}
		}
		g = DefaultRegistry.Gauge("unico_fleet_queue_depth",
			"In-flight plus queued requests per fleet shard.", Labels{"shard": shard})
		fleetQueue[shard] = g
	}
	return g
}

var (
	fleetShedMu sync.Mutex
	fleetShed   = map[string]*Counter{}
)

// FleetShed counts requests the fleet router shed instead of queuing,
// by reason ("queue-full", "draining", "unhealthy").
func FleetShed(reason string) *Counter {
	fleetShedMu.Lock()
	defer fleetShedMu.Unlock()
	c := fleetShed[reason]
	if c == nil {
		c = DefaultRegistry.Counter("unico_fleet_shed_total",
			"Requests shed by the fleet router, by reason.", Labels{"reason": reason})
		fleetShed[reason] = c
	}
	return c
}

var (
	fleetOnce       sync.Once
	fleetRebalances *Counter
	fleetReplays    *Counter
	fleetProbe      *Histogram
)

// fleetProbeBuckets span health-probe round trips from loopback (sub-ms)
// through a congested shard answering just inside the probe timeout.
var fleetProbeBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

func fleetMetrics() {
	fleetOnce.Do(func() {
		fleetRebalances = DefaultRegistry.Counter("unico_fleet_rebalances_total",
			"Key-range moves after a shard stopped or started taking new work (down, drained, recovered).", nil)
		fleetReplays = DefaultRegistry.Counter("unico_fleet_replays_total",
			"Mapping-search jobs a worker built for a caller that had already seen budget spent on them (the holder was lost) and replayed to that budget.", nil)
		fleetProbe = DefaultRegistry.Histogram("unico_fleet_health_probe_seconds",
			"Fleet health-probe round-trip latency.", fleetProbeBuckets, nil)
	})
}

var (
	fleetForwardMu sync.Mutex
	fleetForward   = map[string]*Histogram{}
)

// fleetForwardBuckets span router→shard forward round trips from a loopback
// cache hit (sub-ms) through a long budget installment advancing a
// mapping-search job (minutes).
var fleetForwardBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// FleetForwardSeconds observes one shard's forward round-trip latency — the
// full router-side view of a request handed to that shard, network included.
func FleetForwardSeconds(shard string) *Histogram {
	fleetForwardMu.Lock()
	defer fleetForwardMu.Unlock()
	h := fleetForward[shard]
	if h == nil {
		if len(fleetForward) >= maxShardLabels {
			shard = "other"
			if h = fleetForward[shard]; h != nil {
				return h
			}
		}
		h = DefaultRegistry.Histogram("unico_fleet_forward_seconds",
			"Router-to-shard forward round-trip latency per shard.", fleetForwardBuckets,
			Labels{"shard": shard})
		fleetForward[shard] = h
	}
	return h
}

var (
	traceSpansMu sync.Mutex
	traceSpans   = map[string]*Counter{}
)

// maxTraceKindLabels caps the distinct span-kind labels; kinds are a fixed
// vocabulary in internal/disttrace, so the cap only guards misuse.
const maxTraceKindLabels = 32

// TraceSpans counts distributed-trace spans started, by kind ("client",
// "attempt", "backoff", "queue", "forward", "replay", "shard", "engine",
// "iteration").
func TraceSpans(kind string) *Counter {
	traceSpansMu.Lock()
	defer traceSpansMu.Unlock()
	c := traceSpans[kind]
	if c == nil {
		if len(traceSpans) >= maxTraceKindLabels {
			kind = "other"
			if c = traceSpans[kind]; c != nil {
				return c
			}
		}
		c = DefaultRegistry.Counter("unico_trace_spans_total",
			"Distributed-trace spans started, by span kind.", Labels{"kind": kind})
		traceSpans[kind] = c
	}
	return c
}

var (
	traceOrphansOnce sync.Once
	traceOrphans     *Counter
)

// TraceOrphans counts orphan spans — spans naming a parent absent from the
// merged trace — detected when the fleet router merges member span logs. The
// tracing write discipline (a parent's start record is fsynced before any
// child starts) makes this zero even through shard kill -9; nonzero means a
// span log was lost or truncated.
func TraceOrphans() *Counter {
	traceOrphansOnce.Do(func() {
		traceOrphans = DefaultRegistry.Counter("unico_trace_orphans_total",
			"Orphan spans detected at router-side trace merges.", nil)
	})
	return traceOrphans
}

// FleetRebalances counts key-range moves caused by membership changes.
func FleetRebalances() *Counter { fleetMetrics(); return fleetRebalances }

// FleetReplays counts jobs a worker had to build for a caller that had
// already seen budget spent on them — the holder died, restarted or was
// passed over — and so replayed to that budget. Counted where the rebuild
// happens: on the worker.
func FleetReplays() *Counter { fleetMetrics(); return fleetReplays }

// FleetProbeSeconds observes health-probe round-trip latency.
func FleetProbeSeconds() *Histogram { fleetMetrics(); return fleetProbe }
