// Package fleet turns a pool of ppaserver shards into one PPA-evaluation
// service with an explicit robustness contract — the growth of the paper's
// §3.5 master/worker deployment from a single process into something that
// survives overload and partial failure instead of falling over.
//
// The Router is the single endpoint masters talk to. It speaks the exact
// worker API of internal/dist (so a dist.Client pointed at a router cannot
// tell it from a worker) and behind it:
//
//   - Consistent-hashes canonical evaluation keys — the SHA-256 content
//     address of the canonicalized (hardware, mapping, layer) triple,
//     evalcache.Key — across the shards, so repeats of a triple land on one
//     shard. Mapping-search jobs hash on their canonical spec encoding.
//   - Bounds admission per shard: a fixed number of concurrent forwards
//     plus a bounded wait queue with per-client fair dequeueing (keyed by
//     the X-Unico-Run-ID header), so one greedy run cannot starve the
//     rest. Beyond the queue the router sheds with 429 + Retry-After —
//     load answers fast failure, never unbounded queueing.
//   - Health-checks membership: shards that fail probes or forwards leave
//     the hash ring (down), re-join when probes answer again, and can be
//     drained — in-flight jobs finish, new work re-hashes elsewhere.
//   - Holds no job state: a mapping-search job is a pure function of
//     (spec, cumulative budget) and every advance names both, so the router
//     hashes the spec and forwards along the ring. When a shard dies or
//     restarts mid-search the next shard along the ring answers the same
//     request by building the job up to the budget asked for — and so does
//     a replaced router. The master observes bounded extra latency, never a
//     lost or double-counted evaluation.
//
// Everything is stdlib-only and instrumented through internal/telemetry
// (unico_fleet_* series; see that package's well-known metrics).
package fleet

import (
	"fmt"
	"sync"
	"time"

	"unico/internal/dist"
	"unico/internal/telemetry"
)

// Defaults for Options fields left zero.
const (
	DefaultShardCapacity  = 8
	DefaultShardQueue     = 64
	DefaultRetryAfter     = time.Second
	DefaultFailAfter      = 2
	DefaultProbeInterval  = 2 * time.Second
	DefaultProbeTimeout   = 2 * time.Second
	DefaultForwardTimeout = 2 * time.Minute
	DefaultVirtualNodes   = 64
)

// Options tunes a Router. The zero value selects every default above.
type Options struct {
	// ShardCapacity is how many requests may be in flight to one shard at
	// once (the admission gate's concurrency).
	ShardCapacity int
	// ShardQueue bounds how many admitted-but-waiting requests one shard's
	// queue holds beyond ShardCapacity; past it the router sheds with
	// 429 + Retry-After instead of queuing unboundedly.
	ShardQueue int
	// RetryAfter is the backoff advertised in Retry-After on shed
	// responses (rounded up to whole seconds, minimum 1).
	RetryAfter time.Duration
	// FailAfter is how many consecutive forward or probe failures mark a
	// shard down and re-hash its key range.
	FailAfter int
	// ProbeInterval is the background health-probe cadence (Start).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one forwarded request. It must comfortably
	// exceed the longest budget installment a master advances in one call.
	ForwardTimeout time.Duration
	// VirtualNodes is the ring replica count per shard; more replicas
	// smooth the key-range split at the cost of a larger ring.
	VirtualNodes int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.ShardCapacity <= 0 {
		o.ShardCapacity = DefaultShardCapacity
	}
	if o.ShardQueue < 0 {
		o.ShardQueue = 0
	} else if o.ShardQueue == 0 {
		o.ShardQueue = DefaultShardQueue
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	if o.FailAfter <= 0 {
		o.FailAfter = DefaultFailAfter
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = DefaultForwardTimeout
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	return o
}

// shardState is one member's position in the membership state machine:
//
//	active ──(FailAfter consecutive failures)──▶ down
//	active ──(drain admin / shard self-report)─▶ draining
//	down ──(health probe answers "ok")─────────▶ active
//	draining ──(undrain / shard reports "ok")──▶ active
//	draining ──(probes fail)───────────────────▶ down
//
// Only active members take new work. Draining members still serve the jobs
// they hold (advance/release); down members serve nothing.
type shardState int

const (
	shardActive shardState = iota
	shardDraining
	shardDown
)

func (s shardState) String() string {
	switch s {
	case shardActive:
		return "active"
	case shardDraining:
		return "draining"
	default:
		return "down"
	}
}

// member is one shard in the fleet.
type member struct {
	id      string       // base URL, e.g. "http://127.0.0.1:19301"
	points  []uint64     // its virtual-node ring coordinates (precomputed)
	forward *dist.Client // forwards; bounded by ForwardTimeout
	probe   *dist.Client // health probes; bounded by ProbeTimeout
	adm     *admission

	// Guarded by Router.mu (state participates in ring membership).
	state       shardState
	consecFails int
	jobs        int // jobs the shard reported holding at its last answered probe
}

// recordJobs keeps the job count m reported at an answered probe.
func (r *Router) recordJobs(m *member, jobs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m.jobs = jobs
}

// Router is the fleet coordinator. Create with NewRouter; serve its
// Handler; optionally Start the background health prober.
type Router struct {
	opts Options

	mu      sync.Mutex
	members []*member // fixed set, configuration order: the slice and each id and client never change
	ring    []ringEntry
}

// NewRouter builds a router over the given shard base URLs.
func NewRouter(shards []string, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards")
	}
	opts = opts.withDefaults()
	r := &Router{opts: opts}
	seen := map[string]bool{}
	for _, s := range shards {
		if s == "" || seen[s] {
			return nil, fmt.Errorf("fleet: empty or duplicate shard %q", s)
		}
		seen[s] = true
		r.members = append(r.members, &member{
			id:      s,
			points:  ringPoints(s, opts.VirtualNodes),
			forward: dist.NewClientOptions(s, nil, dist.Options{Timeout: opts.ForwardTimeout}),
			probe:   dist.NewClientOptions(s, nil, dist.Options{Timeout: opts.ProbeTimeout}),
			adm:     newAdmission(s, opts.ShardCapacity, opts.ShardQueue),
			state:   shardActive,
		})
	}
	r.rebuildRingLocked()
	return r, nil
}

// MemberStatus is one shard's externally visible state (the
// /v1/fleet/members body).
type MemberStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	ConsecFails int    `json:"consec_fails"`
	QueueDepth  int    `json:"queue_depth"`
	Jobs        int    `json:"jobs"` // jobs the shard reported at its last answered health probe
}

// Members snapshots every shard's status in configuration order.
func (r *Router) Members() []MemberStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberStatus, len(r.members))
	for i, m := range r.members {
		out[i] = MemberStatus{
			ID:          m.id,
			State:       m.state.String(),
			ConsecFails: m.consecFails,
			QueueDepth:  m.adm.depth(),
			Jobs:        m.jobs,
		}
	}
	return out
}

// memberByID finds a member by its base URL.
func (r *Router) memberByID(id string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.id == id {
			return m
		}
	}
	return nil
}

// setState transitions a member, rebuilding the ring when it goes down or
// comes back and counting a rebalance when the transition moves its key
// range (it stops or starts taking new work).
func (r *Router) setState(m *member, s shardState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.state == s {
		return
	}
	wasActive, wasDown := m.state == shardActive, m.state == shardDown
	m.state = s
	m.consecFails = 0
	if wasDown != (s == shardDown) {
		r.rebuildRingLocked()
	}
	if wasActive != (s == shardActive) {
		telemetry.FleetRebalances().Inc()
	}
}

// noteFailure records one failed forward or probe against m, marking it
// down once the streak reaches FailAfter.
func (r *Router) noteFailure(m *member) {
	r.mu.Lock()
	m.consecFails++
	trip := m.consecFails >= r.opts.FailAfter && m.state != shardDown
	r.mu.Unlock()
	if trip {
		r.setState(m, shardDown)
	}
}

// noteSuccess clears m's failure streak.
func (r *Router) noteSuccess(m *member) {
	r.mu.Lock()
	m.consecFails = 0
	r.mu.Unlock()
}

// anyDraining reports whether at least one member is draining — used to
// pick the shed reason when the ring is empty.
func (r *Router) anyDraining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.state == shardDraining {
			return true
		}
	}
	return false
}
