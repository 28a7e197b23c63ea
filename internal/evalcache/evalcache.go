// Package evalcache is a concurrency-safe, content-addressed cache for PPA
// evaluations.
//
// Both PPA engines — the analytical model (internal/maestro) and the
// cycle-level simulator (internal/camodel) — are pure functions of their
// inputs, so an evaluation can be served from a cache keyed by the content
// of its (hardware, mapping, layer) triple instead of recomputed.
//
// The cache is:
//
//   - Content-addressed: keys are SHA-256 digests of a canonical binary
//     encoding of (hardware config, mapping/schedule, workload layer shape).
//     Layer name and repeat count are deliberately excluded — metrics depend
//     only on the operator shape, so identical shapes across networks share
//     one entry (see key.go).
//   - Sharded: 64 independently locked shards keep contention negligible
//     under the parallel Advance calls of the successive-halving scheduler.
//   - Bounded: each shard evicts least-recently-used entries beyond its
//     capacity share, so memory stays proportional to the configured size.
//   - Deduplicating: an evaluation already in flight for the same key is
//     joined, not recomputed (singleflight), which matters when a batch
//     contains duplicate hardware suggestions.
//   - Observable: hits, misses, in-flight joins and the entry count are
//     mirrored into internal/telemetry's default registry.
//   - Persistent (optionally): entries round-trip through a JSONL file
//     (persist.go).
//
// Correctness contract: because the engines are deterministic, a co-search
// over cached engines returns bit-identical results to one without — bench/
// checks this on every run. Errors are cached too (an infeasible
// mapping is just as deterministic as a feasible one).
//
// No run path consults the cache: measured inside a co-search it costs more
// host time than the engines it fronts (PERFORMANCE.md §6), and the simulated
// clock charges a hit like a miss. The package stays for bench/'s
// cloud_mapping_cached workload and probes, and for the content address
// (Key) the fleet ring hashes on.
package evalcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"unico/internal/perfprof"
	"unico/internal/ppa"
	"unico/internal/telemetry"
)

// numShards is the shard count of every Cache. 64 keeps lock contention
// negligible at the repo's default worker parallelism while costing only a
// few empty maps when the cache is small.
const numShards = 64

// DefaultSize is the default entry bound of a Cache (about one million
// entries; a full -scale paper experiment run spends ~1e6 evaluations).
const DefaultSize = 1 << 20

// entry is one cached evaluation result.
type entry struct {
	key    Key
	engine string // "maestro" or "camodel"; selects the persisted sentinel
	met    ppa.Metrics
	err    error
}

// call is one in-flight computation that identical lookups join.
type call struct {
	done chan struct{}
	met  ppa.Metrics
	err  error
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element // values are *entry
	lru      *list.List            // front = most recently used
	inflight map[Key]*call
}

// Cache is a sharded, LRU-bounded, singleflight-deduplicating map from
// evaluation keys to PPA results. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Cache struct {
	shards      [numShards]shard
	perShardCap int

	hits   atomic.Uint64
	misses atomic.Uint64
	waits  atomic.Uint64
	size   atomic.Int64
}

// New returns an empty cache bounded to roughly size entries
// (DefaultSize when size <= 0). The bound is enforced per shard, so the
// exact capacity is size rounded up to a multiple of the shard count.
func New(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	per := (size + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{perShardCap: per}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*list.Element{}
		c.shards[i].lru = list.New()
		c.shards[i].inflight = map[Key]*call{}
	}
	return c
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64
	// Misses counts lookups that ran the compute function.
	Misses uint64
	// InflightWaits counts lookups that joined an identical in-flight
	// computation instead of starting their own.
	InflightWaits uint64
	// Entries is the current stored-entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Entries:       int(c.size.Load()),
	}
}

// shardFor maps a key to its shard by the key's first byte (the key is a
// SHA-256 digest, so any byte is uniformly distributed).
func (c *Cache) shardFor(k Key) *shard { return &c.shards[int(k[0])%numShards] }

// Do returns the cached result for key, computing and storing it with
// compute on a miss. engine names the PPA engine that owns the key
// ("maestro" or "camodel") and is recorded for JSONL persistence. Identical
// concurrent calls are deduplicated: one runs compute, the rest block until
// it finishes and share its result. An error returned by compute is cached
// like a value (deterministic infeasibility).
func (c *Cache) Do(key Key, engine string, compute func() (ppa.Metrics, error)) (ppa.Metrics, error) {
	t := perfprof.NewTimer()
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		s.mu.Unlock()
		c.hits.Add(1)
		telemetry.EvalCacheHits().Inc()
		t.ObserveAs("evalcache.hit")
		return e.met, e.err
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.waits.Add(1)
		telemetry.EvalCacheInflightWaits().Inc()
		//unicolint:allow ctxflow singleflight followers wait for the leader, whose computation carries the caller-side cancellation; the channel closes on every leader path
		<-cl.done
		t.ObserveAs("evalcache.wait")
		return cl.met, cl.err
	}
	cl := &call{done: make(chan struct{})}
	s.inflight[key] = cl
	s.mu.Unlock()

	c.misses.Add(1)
	telemetry.EvalCacheMisses().Inc()
	defer t.ObserveAs("evalcache.miss")

	met, err := compute()
	cl.met, cl.err = met, err

	s.mu.Lock()
	delete(s.inflight, key)
	c.store(s, &entry{key: key, engine: engine, met: met, err: err})
	s.mu.Unlock()
	close(cl.done)
	return met, err
}

// store inserts an entry into a locked shard, evicting from the LRU tail
// past the shard's capacity. Callers must hold s.mu.
func (c *Cache) store(s *shard, e *entry) {
	if el, ok := s.entries[e.key]; ok {
		s.lru.MoveToFront(el)
		el.Value = e
		return
	}
	s.entries[e.key] = s.lru.PushFront(e)
	c.size.Add(1)
	for s.lru.Len() > c.perShardCap {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*entry).key)
		c.size.Add(-1)
	}
	telemetry.EvalCacheEntries().Set(float64(c.size.Load()))
}

// put stores a fully formed entry (used by the JSONL loader).
func (c *Cache) put(e *entry) {
	s := c.shardFor(e.key)
	s.mu.Lock()
	c.store(s, e)
	s.mu.Unlock()
}

// snapshot copies every stored entry, shard by shard (used by the JSONL
// writer; the copy is not a consistent point-in-time view across shards,
// which persistence does not need).
func (c *Cache) snapshot() []*entry {
	var out []*entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			out = append(out, el.Value.(*entry))
		}
		s.mu.Unlock()
	}
	return out
}
