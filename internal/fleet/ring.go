package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ringEntry is one virtual node: a point on the 64-bit ring owned by a
// member.
type ringEntry struct {
	point uint64
	m     *member
}

// ringPoints derives a shard's virtual-node coordinates: the first eight
// bytes (little-endian, matching evalcache.Key.Uint64) of
// sha256(id + "#" + replica). Purely a function of the shard ID, so every
// router instance and every restart agrees on the layout.
func ringPoints(id string, replicas int) []uint64 {
	pts := make([]uint64, replicas)
	for i := range pts {
		sum := sha256.Sum256([]byte(id + "#" + strconv.Itoa(i)))
		pts[i] = binary.LittleEndian.Uint64(sum[:8])
	}
	return pts
}

// rebuildRingLocked reassembles the ring from the members that are not
// down: draining ones keep their place so the jobs they hold still find
// them (walk leaves them out for everything else). Callers must hold r.mu.
// Ties on a point (astronomically unlikely) break by member ID so the
// layout stays deterministic.
func (r *Router) rebuildRingLocked() {
	r.ring = r.ring[:0]
	for _, m := range r.members {
		if m.state == shardDown {
			continue
		}
		for _, p := range m.points {
			r.ring = append(r.ring, ringEntry{point: p, m: m})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].point != r.ring[j].point {
			return r.ring[i].point < r.ring[j].point
		}
		return r.ring[i].m.id < r.ring[j].m.id
	})
}

// successors returns the distinct active members that own key h, nearest
// first: the owner, then each fallback met walking clockwise around the
// ring. Deterministic for a fixed membership — two routers (or one router
// before and after a shard bounce) route the same key the same way.
func (r *Router) successors(h uint64) []*member { return r.walk(h, false) }

// holders is successors for a job request: draining members stay in the
// walk, in their ring position, because a draining shard still answers for
// the jobs it holds (and refuses the ones it does not, which moves the
// request on).
func (r *Router) holders(h uint64) []*member { return r.walk(h, true) }

func (r *Router) walk(h uint64, draining bool) []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].point >= h })
	seen := make(map[*member]bool, len(r.members))
	var out []*member
	for i := 0; i < len(r.ring) && len(seen) < len(r.members); i++ {
		e := r.ring[(start+i)%len(r.ring)]
		if seen[e.m] {
			continue
		}
		seen[e.m] = true
		if draining || e.m.state == shardActive {
			out = append(out, e.m)
		}
	}
	return out
}

// hashBytes maps an arbitrary payload onto the ring, for requests that
// have no canonical evaluation key.
func hashBytes(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}
