package telemetry

import "sync"

// Well-known global metrics of the co-optimizer, all living in
// DefaultRegistry: each is declared once below, registered when the package
// initialises, and handed out by the accessor of the same name. The labelled
// families register an instance per label value on first use.

var (
	mapSearchSteps = DefaultRegistry.Counter("unico_mapsearch_steps_total", "Software-mapping layer search steps.", nil)
	gpFits         = DefaultRegistry.Counter("unico_gp_fits_total", "Gaussian-process surrogate fits.", nil)
	gpExtends      = DefaultRegistry.Counter("unico_gp_extends_total", "Incremental Gaussian-process surrogate extends.", nil)
	distJobs       = DefaultRegistry.Gauge("unico_dist_jobs", "Mapping-search jobs currently held by this worker.", nil)

	moboAcqBounded = DefaultRegistry.Counter("unico_mobo_acq_bounded_total",
		"Acquisition pool candidates bounded with no exponential and no solve (envelope means and variances).", nil)
	moboAcqSolved = DefaultRegistry.Counter("unico_mobo_acq_solved_total",
		"Acquisition pool candidates whose bound could still win and that paid for exact means.", nil)
	moboAcqCompleted = DefaultRegistry.Counter("unico_mobo_acq_completed_total",
		"Exact-scored acquisition pool candidates whose variance solve ran: exact means and envelope variances could still win.", nil)

	evalCacheHits = DefaultRegistry.Counter("unico_evalcache_hits_total",
		"PPA evaluations served from the content-addressed cache.", nil)
	evalCacheMisses = DefaultRegistry.Counter("unico_evalcache_misses_total",
		"PPA evaluations computed by an engine and stored in the cache.", nil)
	evalCacheInflightWaits = DefaultRegistry.Counter("unico_evalcache_inflight_waits_total",
		"PPA evaluations deduplicated against an identical in-flight computation.", nil)
	evalCacheEntries = DefaultRegistry.Gauge("unico_evalcache_entries",
		"Entries currently held by the PPA evaluation cache.", nil)
	evalCacheSkippedLines = DefaultRegistry.Counter("unico_evalcache_skipped_lines_total",
		"Malformed or truncated JSONL lines skipped while loading a persisted cache.", nil)

	distRetries = DefaultRegistry.Counter("unico_dist_retries_total",
		"Master-side HTTP retries against worker nodes.", nil)
	distWorkerEvictions = DefaultRegistry.Counter("unico_dist_worker_evictions_total",
		"Workers evicted from the rotation after consecutive failures.", nil)
	distWorkerReadmissions = DefaultRegistry.Counter("unico_dist_worker_readmissions_total",
		"Evicted workers re-admitted after a successful probe.", nil)
	distLostEvals = DefaultRegistry.Counter("unico_dist_lost_evals_total",
		"Candidate evaluations lost to unrecoverable worker failures.", nil)
	distBytesSent = DefaultRegistry.Counter("unico_dist_bytes_sent_total",
		"Request body bytes sent by this process's HTTP exchanges.", nil)
	distBytesReceived = DefaultRegistry.Counter("unico_dist_bytes_received_total",
		"Response body bytes read by this process's HTTP exchanges.", nil)

	checkpointTornRecords = DefaultRegistry.Counter("unico_checkpoint_torn_records_total",
		"Torn trailing journal records detected and truncated on load.", nil)

	fleetRebalances = DefaultRegistry.Counter("unico_fleet_rebalances_total",
		"Key-range moves after a shard stopped or started taking new work (down, drained, recovered).", nil)
	fleetReplays = DefaultRegistry.Counter("unico_fleet_replays_total",
		"Mapping-search jobs a worker built for a caller that had already seen budget spent on them (the holder was lost) and replayed to that budget.", nil)
	fleetProbeSeconds = DefaultRegistry.Histogram("unico_fleet_health_probe_seconds",
		"Fleet health-probe round-trip latency.", fleetProbeBuckets, nil)
)

// MapSearchSteps counts software-mapping layer search steps.
func MapSearchSteps() *Counter { return mapSearchSteps }

// GPFits counts Gaussian-process surrogate fits.
func GPFits() *Counter { return gpFits }

// GPExtends counts incremental Gaussian-process surrogate extends — the
// one-observation Cholesky-border updates that replaced a full refit.
func GPExtends() *Counter { return gpExtends }

// MOBOAcqBounded counts the pool candidates the acquisition search bounded
// with no exponential and no solve (gp.Envelope) — every candidate of every
// pool.
func MOBOAcqBounded() *Counter { return moboAcqBounded }

// MOBOAcqSolved counts the pool candidates whose bound could still win, the
// ones that went on to pay for their exact means (kernel columns with their
// exponentials) toward an exact score. Solved over bounded is the share of
// the pool the bound did not prune.
func MOBOAcqSolved() *Counter { return moboAcqSolved }

// MOBOAcqCompleted counts the solved pool candidates whose variance solve
// ran: those whose acquisition at their exact means and envelope variances
// could still win. The others skipped it and scored +Inf. Completed over
// solved is the share of exact scores that paid for the O(n²) solve.
func MOBOAcqCompleted() *Counter { return moboAcqCompleted }

// DistJobs gauges the mapping-search jobs currently held by a worker.
func DistJobs() *Gauge { return distJobs }

// EvalCacheHits counts PPA evaluations served from the evaluation cache.
func EvalCacheHits() *Counter { return evalCacheHits }

// EvalCacheMisses counts PPA evaluations the cache had to compute and store.
func EvalCacheMisses() *Counter { return evalCacheMisses }

// EvalCacheInflightWaits counts evaluations that joined (waited on) an
// identical in-flight computation instead of recomputing it.
func EvalCacheInflightWaits() *Counter { return evalCacheInflightWaits }

// EvalCacheEntries gauges the current entry count of the evaluation cache.
func EvalCacheEntries() *Gauge { return evalCacheEntries }

// EvalCacheSkippedLines counts malformed or truncated JSONL lines skipped
// while loading a persisted evaluation cache (the residue of a crash
// mid-append; the loader tolerates and counts them).
func EvalCacheSkippedLines() *Counter { return evalCacheSkippedLines }

// DistRetries counts master-side HTTP retries against worker nodes.
func DistRetries() *Counter { return distRetries }

// DistWorkerEvictions counts workers evicted from the master's rotation.
func DistWorkerEvictions() *Counter { return distWorkerEvictions }

// DistWorkerReadmissions counts evicted workers re-admitted after a
// successful probe.
func DistWorkerReadmissions() *Counter { return distWorkerReadmissions }

// DistLostEvals counts evaluations lost for good on the master side: a
// candidate whose mapping-search job could not be placed on any worker, or
// whose job latched a transport error mid-search. The fleet's robustness
// contract is that this counter stays at zero through shard kill, restart
// and drain — the CI chaos smoke gates on it.
func DistLostEvals() *Counter { return distLostEvals }

// DistBytesSent counts the request body bytes of every dist exchange this
// process makes (master, router and prober alike).
func DistBytesSent() *Counter { return distBytesSent }

// DistBytesReceived counts the response body bytes every dist exchange of
// this process read.
func DistBytesReceived() *Counter { return distBytesReceived }

// CheckpointTornRecords counts torn trailing journal records truncated on
// load (the expected residue of a crash mid-append).
func CheckpointTornRecords() *Counter { return checkpointTornRecords }

// FleetRebalances counts key-range moves caused by membership changes.
func FleetRebalances() *Counter { return fleetRebalances }

// FleetReplays counts jobs a worker had to build for a caller that had
// already seen budget spent on them — the holder died, restarted or was
// passed over — and so replayed to that budget. Counted where the rebuild
// happens: on the worker.
func FleetReplays() *Counter { return fleetReplays }

// FleetProbeSeconds observes health-probe round-trip latency.
func FleetProbeSeconds() *Histogram { return fleetProbeSeconds }

// Bucket layouts of the histograms.
var (
	// ppaEvalBuckets span host-side evaluation latencies from the analytical
	// models (tens of µs) through cycle-level simulation (ms) to remote
	// round trips with retries (seconds).
	ppaEvalBuckets = []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
	// fleetProbeBuckets span health-probe round trips from loopback (sub-ms)
	// through a congested shard answering just inside the probe timeout.
	fleetProbeBuckets = []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
	}
	// fleetForwardBuckets span router→shard forward round trips from a
	// loopback evaluation (sub-ms) through a long budget installment advancing
	// a mapping-search job (minutes).
	fleetForwardBuckets = []float64{
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
	}
)

// labelled is a metric family with one label: get hands out the metric of a
// label value, registering it on first use, without re-rendering the label
// set on every call the way a Registry lookup does. Past max distinct values
// new ones share the "other" metric, so a caller minting label values cannot
// grow the exposition without bound.
type labelled[M any] struct {
	max      int
	register func(value string) *M

	mu      sync.Mutex
	byValue map[string]*M
}

func (l *labelled[M]) get(value string) *M {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.byValue[value]; m != nil {
		return m
	}
	if len(l.byValue) >= l.max {
		value = "other"
		if m := l.byValue[value]; m != nil {
			return m
		}
	}
	if l.byValue == nil {
		l.byValue = map[string]*M{}
	}
	m := l.register(value)
	l.byValue[value] = m
	return m
}

// PPAEvals counts PPA-engine calls for one engine ("maestro", "camodel").
// The engines write no metrics: a mapping-search job counts its own calls —
// a spatial job's under "maestro", an Ascend-like job's under "camodel" —
// and adds them once per budget installment, and a worker's /v1/ppa handler
// counts each request. A layer step calls its engine at most once, so a
// search's count is at most its layer steps (unico_mapsearch_steps_total):
// an annealer's proposal equal to its current schedule reuses that
// schedule's metrics and spends budget without a call.
func PPAEvals(engine string) *Counter {
	return DefaultRegistry.Counter("unico_ppa_evals_total",
		"PPA-engine calls by engine; at most the mapping-search layer steps, which spend the evaluation budget.", Labels{"engine": engine})
}

// PPAInfeasible counts PPA evaluations rejected as infeasible, per engine,
// where PPAEvals counts the calls.
func PPAInfeasible(engine string) *Counter {
	return DefaultRegistry.Counter("unico_ppa_infeasible_total",
		"PPA evaluations rejected as infeasible, by engine.", Labels{"engine": engine})
}

// PPAEvalSeconds observes host-side (wall-clock, not simulated) PPA
// evaluation latency for one engine. Only "dist" observes it, once per
// remote evaluation: an in-process call costs about as much as reading the
// clock twice.
func PPAEvalSeconds(engine string) *Histogram {
	return DefaultRegistry.Histogram("unico_ppa_eval_seconds",
		"Host-side PPA evaluation latency by engine.", ppaEvalBuckets, Labels{"engine": engine})
}

// FleetShed counts requests the fleet router shed instead of queuing,
// by reason ("queue-full", "draining", "unhealthy").
func FleetShed(reason string) *Counter {
	return DefaultRegistry.Counter("unico_fleet_shed_total",
		"Requests shed by the fleet router, by reason.", Labels{"reason": reason})
}

// BuildInfo returns the constant-1 build-identity gauge
// unico_build_info{go_version,vcs_rev} — the Prometheus idiom for exposing
// version strings as labels. internal/buildinfo resolves the values from
// the binary's embedded build metadata and sets the gauge once per process.
func BuildInfo(goVersion, vcsRev string) *Gauge {
	return DefaultRegistry.Gauge("unico_build_info",
		"Build identity of this binary (constant 1; the identity is in the labels).",
		Labels{"go_version": goVersion, "vcs_rev": vcsRev})
}

// Label caps of the families below. A long-lived worker sees many runs;
// shards and span kinds are small fixed sets, capped only against misuse.
const (
	maxRunIDLabels     = 64
	maxShardLabels     = 256
	maxTraceKindLabels = 32
)

var (
	distRunRequests = labelled[Counter]{max: maxRunIDLabels, register: func(runID string) *Counter {
		return DefaultRegistry.Counter("unico_dist_run_requests_total",
			"Worker requests by originating client run ID.", Labels{"run_id": runID})
	}}
	fleetQueueDepth = labelled[Gauge]{max: maxShardLabels, register: func(shard string) *Gauge {
		return DefaultRegistry.Gauge("unico_fleet_queue_depth",
			"In-flight plus queued requests per fleet shard.", Labels{"shard": shard})
	}}
	fleetForwardSeconds = labelled[Histogram]{max: maxShardLabels, register: func(shard string) *Histogram {
		return DefaultRegistry.Histogram("unico_fleet_forward_seconds",
			"Router-to-shard forward round-trip latency per shard.", fleetForwardBuckets, Labels{"shard": shard})
	}}
	traceSpans = labelled[Counter]{max: maxTraceKindLabels, register: func(kind string) *Counter {
		return DefaultRegistry.Counter("unico_trace_spans_total",
			"Distributed-trace spans started, by span kind.", Labels{"kind": kind})
	}}
)

// DistRunRequests counts worker requests by originating client run ID (from
// the X-Unico-Run-ID header; "" folds to "unknown").
func DistRunRequests(runID string) *Counter {
	if runID == "" {
		runID = "unknown"
	}
	return distRunRequests.get(runID)
}

// FleetQueueDepth gauges one shard's admission pressure: requests currently
// forwarded plus requests waiting in its bounded admission queue.
func FleetQueueDepth(shard string) *Gauge { return fleetQueueDepth.get(shard) }

// FleetForwardSeconds observes one shard's forward round-trip latency — the
// full router-side view of a request handed to that shard, network included.
func FleetForwardSeconds(shard string) *Histogram { return fleetForwardSeconds.get(shard) }

// TraceSpans counts distributed-trace spans started, by kind ("client",
// "attempt", "backoff", "queue", "forward", "replay", "shard", "engine",
// "iteration").
func TraceSpans(kind string) *Counter { return traceSpans.get(kind) }
