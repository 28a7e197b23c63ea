package evalcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/workload"
)

// Key is the content address of one PPA evaluation: the SHA-256 digest of a
// canonical binary encoding of the (hardware, mapping, layer) triple plus a
// platform tag byte. Two triples share a key exactly when every field the
// cost models read is equal.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the form persisted to JSONL).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Uint64 folds the key to its first eight digest bytes — the uniformly
// distributed ring coordinate the fleet router consistent-hashes shards and
// evaluation keys into.
func (k Key) Uint64() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// parseKey decodes the hex form; ok is false on malformed input.
func parseKey(s string) (Key, bool) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, false
	}
	copy(k[:], b)
	return k, true
}

// Platform tag bytes keep the two engines' key spaces disjoint even for
// numerically identical field encodings.
const (
	tagSpatial byte = 's'
	tagAscend  byte = 'a'
)

// hashInts digests a platform tag plus a fixed-order field list. Every field
// is written as a little-endian int64, so the encoding is unambiguous
// (fixed width, fixed order, no delimiters needed).
func hashInts(tag byte, fields ...int64) Key {
	h := sha256.New()
	var buf [8]byte
	h.Write([]byte{tag})
	for _, f := range fields {
		binary.LittleEndian.PutUint64(buf[:], uint64(f))
		h.Write(buf[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// layerFields lists the layer fields the cost models read. Name and Repeat
// are deliberately excluded: metrics depend only on the operator shape
// (network-level sums apply Repeat outside the per-layer evaluation), so
// identical shapes across networks — common among the zoo's conv blocks —
// share one cache entry.
func layerFields(l workload.Layer) []int64 {
	return []int64{
		int64(l.Kind), int64(l.N), int64(l.K), int64(l.C),
		int64(l.Y), int64(l.X), int64(l.R), int64(l.S), int64(l.Stride),
	}
}

// SpatialKey returns the content address of evaluating layer l with mapping
// m on the spatial-accelerator configuration c. Callers should canonicalize
// the mapping first (m.Canon(l)) so schedules that the engine would clamp to
// the same canonical form share an entry; the cached engine wrappers do.
func SpatialKey(c hw.Spatial, m mapping.Spatial, l workload.Layer) Key {
	fields := []int64{
		int64(c.PEX), int64(c.PEY), int64(c.L1Bytes), int64(c.L2KB),
		int64(c.NoCBW), int64(c.Dataflow),
		int64(m.TK), int64(m.TC), int64(m.TY), int64(m.TX),
		int64(m.TR), int64(m.TS), int64(m.SpatX), int64(m.SpatY), int64(m.Order),
	}
	return hashInts(tagSpatial, append(fields, layerFields(l)...)...)
}

// AscendKey returns the content address of evaluating layer l with schedule
// m on the Ascend-like core configuration c. As with SpatialKey, callers
// should canonicalize the schedule first.
func AscendKey(c hw.Ascend, m mapping.Ascend, l workload.Layer) Key {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	fields := []int64{
		int64(c.L0AKB), int64(c.L0BKB), int64(c.L0CKB), int64(c.L1KB),
		int64(c.UBKB), int64(c.PBKB), int64(c.ICacheKB),
		int64(c.L0ABanks), int64(c.L0BBanks), int64(c.L0CBanks),
		int64(c.CubeM), int64(c.CubeK), int64(c.CubeN),
		int64(m.TM), int64(m.TK), int64(m.TN), int64(m.FuseDepth),
		b2i(m.DBufA), b2i(m.DBufB), b2i(m.DBufC),
	}
	return hashInts(tagAscend, append(fields, layerFields(l)...)...)
}
