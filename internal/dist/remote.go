package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/telemetry"
)

// The master's worker-health policy (see RemoteSpatialPlatform).
const (
	// DefaultEvictAfter is how many consecutive failed advances evict a
	// worker from the rotation.
	DefaultEvictAfter = 3
	// DefaultProbeEvery is how many new jobs pass between health probes of
	// evicted workers.
	DefaultProbeEvery = 8
)

// workerHealth is the master's view of one worker.
type workerHealth struct {
	client      *Client
	consecFails int
	evicted     bool
}

// RemoteSpatialPlatform implements core.Platform over a pool of worker
// nodes: the master runs MOBO and successive halving locally, while every
// software-mapping job executes on a worker — the master/slave deployment
// of paper Fig. 6b. Jobs are assigned to workers round-robin.
//
// A job is its spec and a cumulative budget, so any worker can take it over
// at any advance: the pool's health policy runs where requests are made.
// Workers that fail DefaultEvictAfter advances in a row are evicted from the
// rotation so a dead node stops eating timeouts on every batch; evicted
// workers are probed every DefaultProbeEvery new jobs (counted in jobs, so
// behavior is deterministic — no background goroutines) and re-admitted
// when their health endpoint answers again.
type RemoteSpatialPlatform struct {
	// Spatial is the platform the workers search, held here for everything
	// but the search itself: the design space, the workload, the caps and
	// the simulated cost are the local platform's, so a remote run and a
	// local one account alike by construction. NewJob below shadows its.
	*platform.Spatial
	scenario hw.Scenario
	networks []string

	mu      sync.Mutex
	workers []*workerHealth
	calls   int // NewJob calls; each job's turn in the rotation
}

// NewRemoteSpatialPlatform builds the master-side platform. The networks
// must exist in the workload zoo of every worker.
func NewRemoteSpatialPlatform(workers []*Client, sc hw.Scenario, networks []string) (*RemoteSpatialPlatform, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	ws, err := lookupNetworks(networks)
	if err != nil {
		return nil, err
	}
	hs := make([]*workerHealth, len(workers))
	for i, w := range workers {
		hs[i] = &workerHealth{client: w}
	}
	return &RemoteSpatialPlatform{
		Spatial:  platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike),
		workers:  hs,
		scenario: sc,
		networks: networks,
	}, nil
}

// NewJob names the mapping search and takes its turn in the round-robin; it
// does no I/O. The job reaches a worker at its first advance.
func (p *RemoteSpatialPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	p.mu.Lock()
	p.calls++
	turn := p.calls
	p.mu.Unlock()
	return &remoteJob{pool: p, turn: turn, spec: JobSpec{
		Platform: "spatial",
		Scenario: p.scenario.String(),
		Networks: p.networks,
		X:        x,
		Algo:     "flextensor",
		Seed:     seed,
	}}
}

// errNoWorker is advance's error when every worker is evicted and none
// answers its probe.
var errNoWorker = errors.New("dist: no worker in rotation")

// advance sends req to j's holder, then to each other worker in the
// rotation, until one answers; the one that does holds the job from then on
// (building it from the spec if it has to, so the state is the same
// whoever answers). Failures count toward eviction; if every worker in the
// rotation fails, the evicted ones are probed and the rotation tried once
// more as a last resort. Only when no worker at all answers does the error
// come back, which latches the job: one lost candidate, not a lost run.
func (p *RemoteSpatialPlatform) advance(ctx context.Context, j *remoteJob, req AdvanceRequest) (JobState, error) {
	err := errNoWorker
	for _, lastResort := range []bool{false, true} {
		for _, w := range p.rotation(ctx, j, lastResort) {
			var state JobState
			state, err = w.client.AdvanceJobContext(ctx, req)
			if err == nil {
				p.noteSuccess(w)
				j.holder = w
				return state, nil
			}
			if !isRetryable(err) {
				// The worker answered (a spec it rejects) or ctx ended: no
				// other worker would do differently.
				return JobState{}, err
			}
			p.noteFailure(w)
		}
	}
	return JobState{}, err
}

// rotation lists the workers to try for j: its holder, then the others
// round-robin from the job's turn, evicted ones left out. Evicted workers
// are health-probed first when a new job's turn falls on the
// DefaultProbeEvery cadence, or as the last resort.
func (p *RemoteSpatialPlatform) rotation(ctx context.Context, j *remoteJob, lastResort bool) []*workerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lastResort || (j.holder == nil && j.turn%DefaultProbeEvery == 0) {
		p.probeEvictedLocked(ctx)
	}
	var active []*workerHealth
	for _, w := range p.workers {
		if !w.evicted {
			active = append(active, w)
		}
	}
	out := make([]*workerHealth, 0, len(active))
	if h := j.holder; h != nil && !h.evicted {
		out = append(out, h)
	}
	for i := range active {
		if w := active[(j.turn+i)%len(active)]; w != j.holder {
			out = append(out, w)
		}
	}
	return out
}

// noteSuccess clears a worker's failure streak.
func (p *RemoteSpatialPlatform) noteSuccess(w *workerHealth) {
	p.mu.Lock()
	w.consecFails = 0
	p.mu.Unlock()
}

// noteFailure records a failed advance, evicting the worker once the streak
// reaches DefaultEvictAfter.
func (p *RemoteSpatialPlatform) noteFailure(w *workerHealth) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.consecFails++
	if !w.evicted && w.consecFails >= DefaultEvictAfter {
		w.evicted = true
		telemetry.DistWorkerEvictions().Inc()
	}
}

// probeEvictedLocked re-admits every evicted worker whose health endpoint
// answers. Callers must hold p.mu.
func (p *RemoteSpatialPlatform) probeEvictedLocked(ctx context.Context) {
	for _, w := range p.workers {
		if w.evicted && w.client.HealthyContext(ctx) {
			w.evicted = false
			w.consecFails = 0
			telemetry.DistWorkerReadmissions().Inc()
		}
	}
}

// remoteJob adapts a job on the worker pool to the mapsearch.Searcher
// interface, so the master's successive-halving scheduler drives remote
// jobs exactly like local ones.
type remoteJob struct {
	pool   *RemoteSpatialPlatform
	spec   JobSpec
	turn   int           // the NewJob call that made it: its slot in the rotation
	holder *workerHealth // the worker that answered the last advance; nil before the first
	// closeCtx is the last advance's context minus its cancellation: what
	// Close, whose signature has no context, sends its release under, so the
	// request still carries the run's ID and trace parent.
	closeCtx context.Context
	// state is the last answer's, with History and Raw holding every point
	// up to Spent: each answer's points appended to the ones before.
	state  JobState
	err    error
	closed bool
}

// Advance spends budget on the remote job. Transport errors latch: the job
// reports no feasible result afterwards, which the co-optimizer treats as an
// infeasible candidate rather than crashing the whole search.
func (j *remoteJob) Advance(budget int) {
	//unicolint:allow ctxflow compatibility wrapper for the mapsearch.Searcher interface; the scheduler drives AdvanceContext
	j.AdvanceContext(context.Background(), budget)
}

// AdvanceContext implements mapsearch.ContextAdvancer: cancelling ctx aborts
// the in-flight worker round trip. A cancellation does not latch — the job
// stays usable, so a resumed run can keep driving it.
func (j *remoteJob) AdvanceContext(ctx context.Context, budget int) {
	if j.err != nil || ctx.Err() != nil {
		return
	}
	j.closeCtx = context.WithoutCancel(ctx)
	state, err := j.pool.advance(ctx, j, AdvanceRequest{
		Spec: j.spec, Budget: j.state.Spent + budget, Seen: j.state.Spent,
	})
	if err != nil {
		if ctx.Err() == nil {
			// The candidate's remaining budget is unrecoverable: the
			// co-optimizer will score it infeasible. Counted so the chaos
			// gates can assert a fleet run lost nothing.
			telemetry.DistLostEvals().Inc()
			j.err = err
		}
		return
	}
	hist, raw := append(j.state.History, state.History...), append(j.state.Raw, state.Raw...)
	j.state, j.state.History, j.state.Raw = state, hist, raw
}

// History returns the last-seen remote history.
func (j *remoteJob) History() ppa.History { return j.state.History }

// RawHistory returns the last-seen remote raw sample trajectory.
func (j *remoteJob) RawHistory() ppa.History { return j.state.Raw }

// Spent returns the last-seen remote budget spent.
func (j *remoteJob) Spent() int { return j.state.Spent }

// Best returns the last-seen remote best metrics.
func (j *remoteJob) Best() (ppa.Metrics, bool) {
	if j.err != nil || !j.state.Feasible {
		return ppa.Metrics{}, false
	}
	return j.state.Best, true
}

// Close releases the job's state on the worker holding it (a job no worker
// ever answered for has none). The co-optimizer calls it once a candidate's
// search is complete, so worker memory stays bounded by the in-flight
// batch. Idempotent; the last-seen state remains readable.
func (j *remoteJob) Close() error {
	if j.closed || j.holder == nil {
		return nil
	}
	j.closed = true
	return j.holder.client.DeleteJobContext(j.closeCtx, j.state.ID)
}
