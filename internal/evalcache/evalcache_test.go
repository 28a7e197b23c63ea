package evalcache

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

func testTriple() (hw.Spatial, mapping.Spatial, workload.Layer) {
	l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
	c := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 2, TC: 2, TY: 2, TX: 2, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	return c, m, l
}

func TestKeyDistinguishesEveryField(t *testing.T) {
	c, m, l := testTriple()
	base := SpatialKey(c, m, l)

	mutations := map[string]func(){}
	mutations["hw.PEX"] = func() { c.PEX++ }
	mutations["hw.L1Bytes"] = func() { c.L1Bytes++ }
	mutations["hw.Dataflow"] = func() { c.Dataflow++ }
	mutations["map.TK"] = func() { m.TK++ }
	mutations["map.Order"] = func() { m.Order++ }
	mutations["map.SpatX"] = func() { m.SpatX, m.SpatY = m.SpatY, m.SpatX }
	mutations["layer.K"] = func() { l.K++ }
	mutations["layer.Stride"] = func() { l.Stride++ }
	mutations["layer.Kind"] = func() { l.Kind = workload.Gemm("g", 4, 4, 4, 1).Kind }
	for name, mutate := range mutations {
		c, m, l = testTriple()
		mutate()
		if SpatialKey(c, m, l) == base {
			t.Errorf("%s: mutation did not change the key", name)
		}
	}
}

func TestKeyIgnoresLayerNameAndRepeat(t *testing.T) {
	c, m, l := testTriple()
	base := SpatialKey(c, m, l)
	l.Name = "renamed"
	l.Repeat = 7
	if SpatialKey(c, m, l) != base {
		t.Error("key depends on layer Name/Repeat; identical shapes must share an entry")
	}
}

func TestSpatialAndAscendKeySpacesDisjoint(t *testing.T) {
	// Same field values, different platform tags.
	if hashInts(tagSpatial, 1, 2, 3) == hashInts(tagAscend, 1, 2, 3) {
		t.Error("platform tag does not separate key spaces")
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	c, m, l := testTriple()
	k := SpatialKey(c, m, l)
	got, ok := parseKey(k.String())
	if !ok || got != k {
		t.Fatalf("parseKey(%q) = %v, %v", k.String(), got, ok)
	}
	if _, ok := parseKey("zz"); ok {
		t.Error("malformed key accepted")
	}
}

func TestDoCachesResults(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	computes := 0
	compute := func() (ppa.Metrics, error) {
		computes++
		return ppa.Metrics{LatencyMs: 1.5}, nil
	}
	for i := 0; i < 3; i++ {
		met, err := cache.Do(key, EngineMaestro, compute)
		if err != nil || met.LatencyMs != 1.5 {
			t.Fatalf("Do #%d = %v, %v", i, met, err)
		}
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	st := cache.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestDoDeduplicatesInflight(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			met, err := cache.Do(key, EngineMaestro, func() (ppa.Metrics, error) {
				computes.Add(1)
				<-gate // hold the computation open so the others pile up
				return ppa.Metrics{LatencyMs: 2}, nil
			})
			if err != nil || met.LatencyMs != 2 {
				t.Errorf("Do = %v, %v", met, err)
			}
		}()
	}
	// Let the goroutines reach the cache, then release the single compute.
	for cache.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times under contention, want 1", got)
	}
	st := cache.Stats()
	if st.Hits+st.InflightWaits != n-1 {
		t.Errorf("hits=%d waits=%d, want them to cover the other %d lookups", st.Hits, st.InflightWaits, n-1)
	}
}

func TestDoCachesDeterministicErrors(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	computes := 0
	wantErr := fmt.Errorf("tile does not fit: %w", maestro.ErrInfeasible)
	for i := 0; i < 2; i++ {
		_, err := cache.Do(key, EngineMaestro, func() (ppa.Metrics, error) {
			computes++
			return ppa.Metrics{}, wantErr
		})
		if !errors.Is(err, maestro.ErrInfeasible) {
			t.Fatalf("Do #%d err = %v", i, err)
		}
	}
	if computes != 1 {
		t.Errorf("infeasibility recomputed %d times, want 1", computes)
	}
}

func TestLRUBound(t *testing.T) {
	// Capacity 64 over 64 shards = 1 entry per shard.
	cache := New(64)
	c, m, l := testTriple()
	var keys []Key
	for i := 0; i < 512; i++ {
		l.N = i + 1
		key := SpatialKey(c, m, l)
		keys = append(keys, key)
		cache.put(&entry{key: key, engine: EngineMaestro, met: ppa.Metrics{LatencyMs: float64(i)}})
	}
	if int(cache.size.Load()) > 64 {
		t.Errorf("cache holds %d entries, bound is 64", int(cache.size.Load()))
	}
	// Find two keys in the same shard: the later insert must have evicted
	// the earlier one.
	shardOf := func(k Key) int { return int(k[0]) % numShards }
	found := false
	for i := 0; i < len(keys) && !found; i++ {
		for j := i + 1; j < len(keys); j++ {
			if shardOf(keys[i]) == shardOf(keys[j]) {
				if _, _, ok := lookup(cache, keys[i]); ok {
					t.Errorf("older same-shard entry survived past the bound")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no same-shard key pair among 512 keys (impossible)")
	}
}

// lookup returns the stored result for key without computing on a miss.
func lookup(c *Cache, key Key) (ppa.Metrics, error, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return ppa.Metrics{}, nil, false
	}
	e := el.Value.(*entry)
	return e.met, e.err, true
}

func TestGetMissAndHit(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	if _, _, ok := lookup(cache, key); ok {
		t.Fatal("hit on empty cache")
	}
	want := ppa.Metrics{LatencyMs: 3}
	if _, err := cache.Do(key, EngineMaestro, func() (ppa.Metrics, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	met, err, ok := lookup(cache, key)
	if !ok || err != nil || met != want {
		t.Fatalf("lookup = %v, %v, %v", met, err, ok)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()

	okKey := SpatialKey(c, m, l)
	wantMet := ppa.Metrics{LatencyMs: 1.25, PowerMW: 300, AreaMM2: 2.5, EnergyUJ: 42}
	cache.put(&entry{key: okKey, engine: EngineMaestro, met: wantMet})

	l.N = 2
	spatialInf := SpatialKey(c, m, l)
	cache.put(&entry{key: spatialInf, engine: EngineMaestro,
		err: fmt.Errorf("mapping does not fit L1: %w", maestro.ErrInfeasible)})

	l.N = 3
	ascendInf := SpatialKey(c, m, l) // any distinct key works for the test
	cache.put(&entry{key: ascendInf, engine: EngineCAModel,
		err: fmt.Errorf("schedule overflows UB: %w", camodel.ErrInfeasible)})

	l.N = 4
	plainErr := SpatialKey(c, m, l)
	cache.put(&entry{key: plainErr, engine: EngineMaestro, err: errors.New("validation: bad dataflow")})

	var buf bytes.Buffer
	if err := cache.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := New(0)
	n, err := loaded.ReadJSONL(&buf)
	if err != nil || n != 4 {
		t.Fatalf("ReadJSONL = %d, %v", n, err)
	}

	met, err, ok := lookup(loaded, okKey)
	if !ok || err != nil || met != wantMet {
		t.Fatalf("metrics entry = %v, %v, %v", met, err, ok)
	}
	if _, err, ok := lookup(loaded, spatialInf); !ok || !errors.Is(err, maestro.ErrInfeasible) {
		t.Errorf("spatial infeasibility lost its sentinel: %v (ok=%v)", err, ok)
	} else if err.Error() != "mapping does not fit L1: "+maestro.ErrInfeasible.Error() {
		t.Errorf("spatial infeasibility lost its message: %q", err)
	}
	if _, err, ok := lookup(loaded, ascendInf); !ok || !errors.Is(err, camodel.ErrInfeasible) {
		t.Errorf("ascend infeasibility lost its sentinel: %v (ok=%v)", err, ok)
	}
	if _, err, ok := lookup(loaded, plainErr); !ok || err == nil ||
		errors.Is(err, maestro.ErrInfeasible) || errors.Is(err, camodel.ErrInfeasible) {
		t.Errorf("plain error entry = %v (ok=%v)", err, ok)
	}
}

func TestReadJSONLSkipsMalformedLines(t *testing.T) {
	cache := New(0)
	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	input := "not json\n" +
		`{"k":"zz","m":{"latency_ms":1}}` + "\n" + // bad key
		`{"k":"` + key.String() + `"}` + "\n" + // neither metrics nor error
		`{"k":"` + key.String() + `","e":"maestro","m":{}}` + "\n"
	n, err := cache.ReadJSONL(bytes.NewReader([]byte(input)))
	if err != nil || n != 1 {
		t.Fatalf("ReadJSONL = %d, %v, want 1 stored entry", n, err)
	}
}

func TestSaveAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")

	empty := New(0)
	if n, err := empty.LoadFile(path); n != 0 || err != nil {
		t.Fatalf("LoadFile(missing) = %d, %v, want 0, nil", n, err)
	}

	c, m, l := testTriple()
	key := SpatialKey(c, m, l)
	empty.put(&entry{key: key, engine: EngineMaestro, met: ppa.Metrics{LatencyMs: 9}})
	if err := empty.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	warm := New(0)
	if n, err := warm.LoadFile(path); n != 1 || err != nil {
		t.Fatalf("LoadFile = %d, %v", n, err)
	}
	if met, err, ok := lookup(warm, key); !ok || err != nil || met.LatencyMs != 9 {
		t.Fatalf("warm entry = %v, %v, %v", met, err, ok)
	}
}

// countingSpatial wraps the analytical engine with an evaluation counter, so
// the tests can prove a cache hit performs no engine recomputation.
type countingSpatial struct {
	inner maestro.Engine
	n     atomic.Int64
}

func (e *countingSpatial) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	e.n.Add(1)
	return e.inner.Evaluate(c, m, l)
}
func (e *countingSpatial) Area(c hw.Spatial) float64 { return e.inner.Area(c) }
func (e *countingSpatial) EvalCostSeconds() float64  { return e.inner.EvalCostSeconds() }

func TestCachedSpatialEngineSkipsRecomputation(t *testing.T) {
	counter := &countingSpatial{}
	eng := Spatial{Inner: counter, Cache: New(0)}
	c, m, l := testTriple()

	met1, err1 := eng.Evaluate(c, m, l)
	if err1 != nil {
		t.Fatal(err1)
	}
	calls := counter.n.Load()
	met2, err2 := eng.Evaluate(c, m, l)
	if err2 != nil || met2 != met1 {
		t.Fatalf("cached result differs: %v vs %v (%v)", met2, met1, err2)
	}
	if counter.n.Load() != calls {
		t.Errorf("engine recomputed on a cache hit: %d -> %d calls", calls, counter.n.Load())
	}
	if eng.Area(c) != counter.inner.Area(c) || eng.EvalCostSeconds() != counter.inner.EvalCostSeconds() {
		t.Error("Area/EvalCostSeconds do not delegate")
	}
}
