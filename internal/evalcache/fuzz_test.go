package evalcache

import (
	"bytes"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// FuzzSpatialKeyCanonicalization fuzzes the canonicalize-then-key pipeline
// the cached spatial engine relies on: Canon must repair any raw schedule
// into a valid one, canonicalization must be idempotent, semantically
// equivalent out-of-range representations must share a key, and the key must
// stay sensitive to the layer shape.
func FuzzSpatialKeyCanonicalization(f *testing.F) {
	f.Add(2, 2, 2, 2, 3, 3, 0, 2, 0)
	f.Add(-5, 0, 1<<30, 7, -1, 99, -3, 17, 42)
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, -1)
	f.Add(16, 8, 14, 14, 3, 3, 3, 3, 5)
	f.Fuzz(func(t *testing.T, tk, tc, ty, tx, tr, ts, sx, sy, ord int) {
		l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
		cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432,
			NoCBW: 128, Dataflow: hw.WeightStationary}
		raw := mapping.Spatial{TK: tk, TC: tc, TY: ty, TX: tx, TR: tr, TS: ts,
			SpatX: mapping.Dim(sx), SpatY: mapping.Dim(sy), Order: ord}

		canon := raw.Canon(l)
		if !canon.Valid(l) {
			t.Fatalf("Canon(%+v) = %+v is not valid", raw, canon)
		}
		if again := canon.Canon(l); again != canon {
			t.Fatalf("Canon not idempotent: %+v -> %+v", canon, again)
		}

		key := SpatialKey(cfg, canon, l)
		if key != SpatialKey(cfg, canon, l) {
			t.Fatal("SpatialKey is not deterministic")
		}
		if parsed, ok := parseKey(key.String()); !ok || parsed != key {
			t.Fatalf("key string %q does not round-trip", key)
		}

		// Any non-positive tile means "smallest tile"; any tile at or above
		// the loop bound means "whole loop". Each family of representations
		// must collapse to one canonical form and therefore one cache key.
		abs := func(v int) int {
			if v < 0 {
				return -v
			}
			return v
		}
		under := canon
		under.TK, under.TC, under.TY, under.TX = -abs(tk), 0, -abs(ty), -abs(tx)
		floor := canon
		floor.TK, floor.TC, floor.TY, floor.TX = 1, 1, 1, 1
		if uc, fc := under.Canon(l), floor.Canon(l); uc != fc ||
			SpatialKey(cfg, uc, l) != SpatialKey(cfg, fc, l) {
			t.Fatalf("non-positive tiles diverged from tile 1: %+v vs %+v", uc, fc)
		}
		over := canon
		over.TK, over.TC = l.K+abs(tk), l.C+abs(tc)
		ceil := canon
		ceil.TK, ceil.TC = l.K, l.C
		if oc, cc := over.Canon(l), ceil.Canon(l); oc != cc ||
			SpatialKey(cfg, oc, l) != SpatialKey(cfg, cc, l) {
			t.Fatalf("oversized tiles diverged from the loop bound: %+v vs %+v", oc, cc)
		}

		// The key must not collapse across distinct layer shapes.
		l2 := l
		l2.K++
		if key == SpatialKey(cfg, canon.Canon(l2), l2) {
			t.Fatalf("key ignores the layer shape: %v", key)
		}
	})
}

// FuzzAscendKeyCanonicalization is the Ascend-side twin: GEMM-normal tile
// clamps and the fusion-depth range behave like the spatial clamps.
func FuzzAscendKeyCanonicalization(f *testing.F) {
	f.Add(4, 4, 4, 2, true, false, true)
	f.Add(-9, 0, 1<<30, -1, false, false, false)
	f.Add(1, 1, 1, 99, true, true, true)
	f.Fuzz(func(t *testing.T, tm, tk, tn, fuse int, da, db, dc bool) {
		l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
		cfg := hw.Ascend{L0AKB: 64, L0BKB: 64, L0CKB: 256, L1KB: 1024,
			UBKB: 256, PBKB: 64, ICacheKB: 32,
			L0ABanks: 2, L0BBanks: 2, L0CBanks: 2, CubeM: 16, CubeK: 16, CubeN: 16}
		raw := mapping.Ascend{TM: tm, TK: tk, TN: tn, FuseDepth: fuse,
			DBufA: da, DBufB: db, DBufC: dc}

		canon := raw.Canon(l)
		if !canon.Valid(l) {
			t.Fatalf("Canon(%+v) = %+v is not valid", raw, canon)
		}
		if again := canon.Canon(l); again != canon {
			t.Fatalf("Canon not idempotent: %+v -> %+v", canon, again)
		}

		key := AscendKey(cfg, canon, l)
		if parsed, ok := parseKey(key.String()); !ok || parsed != key {
			t.Fatalf("key string %q does not round-trip", key)
		}

		// Fusion depth clamps to [1, 4]: every out-of-range representation
		// shares a canonical form (and key) with the nearest legal depth.
		low, one := canon, canon
		low.FuseDepth, one.FuseDepth = -abs(fuse), 1
		if lc, oc := low.Canon(l), one.Canon(l); lc != oc ||
			AscendKey(cfg, lc, l) != AscendKey(cfg, oc, l) {
			t.Fatalf("non-positive fusion depth diverged from depth 1: %+v vs %+v", lc, oc)
		}
		high, four := canon, canon
		high.FuseDepth, four.FuseDepth = 5+abs(fuse), 4
		if hc, fc := high.Canon(l), four.Canon(l); hc != fc ||
			AscendKey(cfg, hc, l) != AscendKey(cfg, fc, l) {
			t.Fatalf("oversized fusion depth diverged from depth 4: %+v vs %+v", hc, fc)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestReadJSONLToleratesTruncatedTail pins the crash-tolerance contract of
// the persisted cache: a final line cut short by an interrupted save is
// skipped and counted, and every intact line still loads.
func TestReadJSONLToleratesTruncatedTail(t *testing.T) {
	c, m, l := testTriple()
	k1 := SpatialKey(c, m, l)
	l2 := l
	l2.N = 2
	k2 := SpatialKey(c, m, l2)

	src := New(0)
	src.put(&entry{key: k1, engine: EngineMaestro, met: ppa.Metrics{LatencyMs: 1}})
	src.put(&entry{key: k2, engine: EngineMaestro, met: ppa.Metrics{LatencyMs: 2}})
	var buf bytes.Buffer
	if err := src.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	data := buf.Bytes()
	truncated := data[:len(data)-15] // cut into the middle of the last line

	before := telemetry.EvalCacheSkippedLines().Value()
	warm := New(0)
	n, err := warm.ReadJSONL(bytes.NewReader(truncated))
	if err != nil {
		t.Fatalf("ReadJSONL on truncated input errored: %v", err)
	}
	if n != 1 || int(warm.size.Load()) != 1 {
		t.Fatalf("loaded %d entries (cache %d), want exactly the intact line", n, int(warm.size.Load()))
	}
	if got := telemetry.EvalCacheSkippedLines().Value(); got != before+1 {
		t.Errorf("skipped-line counter advanced by %d, want 1", got-before)
	}
}
