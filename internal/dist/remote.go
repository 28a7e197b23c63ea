package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/runid"
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
//
// Closing a job only queues its release. The pool counts the jobs NewJob
// has handed out and not yet closed, and when the last of them closes it
// sends every queued key in one POST /v1/jobs/release to each worker in the
// rotation — one request per co-search iteration, however large the batch.
// A NewJob sends whatever is still queued, so a job that is never closed
// holds the others' release back no longer than that.
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
	open    int // jobs handed out and not yet closed
	// queued holds the keys of closed jobs not yet released, by the run ID
	// of the context each job last advanced under, so a release carries the
	// identity of the co-search whose jobs it names.
	queued map[string]*releaseBatch
}

// releaseBatch is one run's queued keys and the context they go under: the
// last advance context, minus cancellation, of the run's latest closed job.
type releaseBatch struct {
	ctx context.Context
	ids []string
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

// NewJob names the mapping search and takes its turn in the round-robin.
// The job reaches a worker at its first advance; NewJob's only I/O is the
// release of jobs closed while another was still open.
func (p *RemoteSpatialPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	p.mu.Lock()
	p.calls++
	p.open++
	turn := p.calls
	batches, workers := p.takeReleasesLocked()
	p.mu.Unlock()
	_ = sendReleases(batches, workers)
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
	active := p.activeLocked()
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

// activeLocked lists the workers in the rotation, evicted ones left out.
// Callers must hold p.mu.
func (p *RemoteSpatialPlatform) activeLocked() []*workerHealth {
	var active []*workerHealth
	for _, w := range p.workers {
		if !w.evicted {
			active = append(active, w)
		}
	}
	return active
}

// close counts j closed and queues its key when a worker answered for it
// (one that none did holds nothing); once no job is open it takes every
// queued key and sends it.
func (p *RemoteSpatialPlatform) close(j *remoteJob) error {
	var key string
	if j.holder != nil {
		key = j.spec.Key()
	}
	p.mu.Lock()
	if j.closed {
		p.mu.Unlock()
		return nil
	}
	j.closed = true
	p.open--
	if key != "" {
		run := runid.From(j.closeCtx)
		if p.queued == nil {
			p.queued = map[string]*releaseBatch{}
		}
		b := p.queued[run]
		if b == nil {
			b = &releaseBatch{}
			p.queued[run] = b
		}
		b.ctx, b.ids = j.closeCtx, append(b.ids, key)
	}
	var batches []*releaseBatch
	var workers []*workerHealth
	if p.open == 0 {
		batches, workers = p.takeReleasesLocked()
	}
	p.mu.Unlock()
	return sendReleases(batches, workers)
}

// takeReleasesLocked empties the queue, returning its batches in run-ID
// order and the rotation to send them to. Callers must hold p.mu.
func (p *RemoteSpatialPlatform) takeReleasesLocked() ([]*releaseBatch, []*workerHealth) {
	if len(p.queued) == 0 {
		return nil, nil
	}
	runs := make([]string, 0, len(p.queued))
	for run := range p.queued {
		runs = append(runs, run)
	}
	slices.Sort(runs)
	batches := make([]*releaseBatch, len(runs))
	for i, run := range runs {
		batches[i] = p.queued[run]
	}
	clear(p.queued)
	return batches, p.activeLocked()
}

// sendReleases sends each batch in one request to each worker; a worker
// that fails to answer is not charged, since releasing changes no result.
func sendReleases(batches []*releaseBatch, workers []*workerHealth) error {
	var errs []error
	for _, b := range batches {
		for _, w := range workers {
			errs = append(errs, w.client.ReleaseJobsContext(b.ctx, b.ids))
		}
	}
	return errors.Join(errs...)
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
	// the job's release, queued by Close, whose signature has no context, is
	// sent under, so the request still carries the run's ID and trace
	// parent.
	closeCtx context.Context
	// state is the last answer's, with History and Raw holding every point
	// up to Spent: each answer's points appended to the ones before.
	state  JobState
	err    error
	closed bool // guarded by pool.mu
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

// Tally returns the last-seen remote engine tally.
func (j *remoteJob) Tally() mapsearch.Tally { return j.state.Tally }

// Best returns the last-seen remote best metrics.
func (j *remoteJob) Best() (ppa.Metrics, bool) {
	if j.err != nil || !j.state.Feasible {
		return ppa.Metrics{}, false
	}
	return j.state.Best, true
}

// Close queues the release of the job's state on the workers; the pool
// sends it once no job of its is open (see RemoteSpatialPlatform), and the
// error is that send's, for every job it names. The co-optimizer closes a
// batch once its candidates are scored, so worker memory stays bounded by
// the in-flight batch. Idempotent; the last-seen state remains readable.
func (j *remoteJob) Close() error { return j.pool.close(j) }
