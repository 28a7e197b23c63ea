package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unico/internal/camodel"
	"unico/internal/dist"
	"unico/internal/dist/disttest"
	"unico/internal/evalcache"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// swappable is an http.Handler whose inner handler can be replaced at
// runtime — a shard "restart with total state loss" in one call.
type swappable struct{ v atomic.Value }

func newSwappable(h http.Handler) *swappable {
	s := &swappable{}
	s.v.Store(h)
	return s
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(http.Handler).ServeHTTP(w, r)
}

// testShard is one live worker behind a fault injector, with request
// counters so tests can see where the router sent traffic.
type testShard struct {
	url     string
	inj     *disttest.FaultInjector
	inner   *swappable
	hits    atomic.Int64 // all requests
	ppaHits atomic.Int64 // /v1/ppa requests
}

// restart models kill -9 + restart: the replacement worker holds none of
// the old one's job state.
func (s *testShard) restart(h http.Handler) { s.inner.v.Store(h) }

// newTestFleet starts n real workers behind fault injectors and a router
// over them, all torn down with the test.
func newTestFleet(t *testing.T, n int, opts Options, mk func() http.Handler) (*Router, *httptest.Server, []*testShard) {
	t.Helper()
	if mk == nil {
		mk = func() http.Handler { return dist.NewServer().Handler() }
	}
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		sh := &testShard{inner: newSwappable(mk())}
		sh.inj = disttest.NewFaultInjector(sh.inner)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sh.hits.Add(1)
			if r.URL.Path == "/v1/ppa" {
				sh.ppaHits.Add(1)
			}
			sh.inj.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		sh.url = srv.URL
		shards[i] = sh
		urls[i] = srv.URL
	}
	router, err := NewRouter(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(router.Handler())
	t.Cleanup(rsrv.Close)
	return router, rsrv, shards
}

// edgeJob is a small valid job spec, distinct per seed.
func edgeJob(seed int64) dist.JobSpec {
	// The Edge-space point of hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96,
	// NoCBW: 64}: each coordinate is the centre of its axis level's cell.
	x := []float64{3.5 / 12, 3.5 / 12, 26.5 / 28, 18.5 / 28, 0.25, 0.25}
	return dist.JobSpec{
		Platform: "spatial", Scenario: "edge",
		Networks: []string{"MobileNetV3-S"}, X: x, Algo: "flextensor", Seed: seed,
	}
}

// jobHomedAt returns a job spec (seeds from*1000 up) whose ring walk starts
// at the shard with the given URL.
func jobHomedAt(t *testing.T, r *Router, url string, from int64) dist.JobSpec {
	t.Helper()
	for seed := from * 1000; seed < from*1000+256; seed++ {
		spec := edgeJob(seed)
		if r.holders(hashBytes([]byte(spec.Key())))[0].id == url {
			return spec
		}
	}
	t.Fatalf("no job among 256 seeds hashes to %s", url)
	return dist.JobSpec{}
}

func spatialPPABody(t testing.TB, k int) []byte {
	t.Helper()
	// Vary the layer's K dim, not just its name: the canonical eval key
	// hashes the layer's shape, so each k must be a genuinely distinct key.
	l := workload.Conv(fmt.Sprintf("c%d", k), 16+8*k, 8, 14, 14, 3, 3, 1, 1)
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	b, err := json.Marshal(dist.PPARequest{Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postPPA(t *testing.T, url string, body []byte, run string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ppa", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if run != "" {
		req.Header.Set(runid.Header, run)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterRoutesByContentAddress: the same request always lands on the
// same shard (its LRU stays hot), and different keys spread across shards.
func TestRouterRoutesByContentAddress(t *testing.T) {
	_, rsrv, shards := newTestFleet(t, 3, Options{}, nil)

	body := spatialPPABody(t, 0)
	for i := 0; i < 5; i++ {
		resp := postPPA(t, rsrv.URL, body, "run-a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	owners := 0
	for _, sh := range shards {
		switch sh.ppaHits.Load() {
		case 0:
		case 5:
			owners++
		default:
			t.Fatalf("shard %s served %d of 5 identical requests; key is not sticky", sh.url, sh.ppaHits.Load())
		}
	}
	if owners != 1 {
		t.Fatalf("%d shards claimed the key, want exactly 1", owners)
	}

	// Distinct keys spread: with 64 virtual nodes per shard, 32 distinct
	// requests reaching one single shard would mean the ring is broken.
	for k := 1; k <= 32; k++ {
		resp := postPPA(t, rsrv.URL, spatialPPABody(t, k), "run-a")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	spread := 0
	for _, sh := range shards {
		if sh.ppaHits.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("all traffic on %d shard(s); consistent hashing is not spreading keys", spread)
	}
}

// TestRouterShedsOnQueueFull: with one slot and one queue entry occupied,
// the next request is shed with 429 + Retry-After instead of queueing —
// and the queue drains to completion once the shard unblocks.
func TestRouterShedsOnQueueFull(t *testing.T) {
	gate := make(chan struct{})
	mk := func() http.Handler {
		inner := dist.NewServer().Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/ppa" {
				<-gate
			}
			inner.ServeHTTP(w, r)
		})
	}
	router, rsrv, _ := newTestFleet(t, 1,
		Options{ShardCapacity: 1, ShardQueue: 1, RetryAfter: 7 * time.Second}, mk)

	body := spatialPPABody(t, 0)
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		run := fmt.Sprintf("run-%d", i)
		go func() {
			req, err := http.NewRequest(http.MethodPost, rsrv.URL+"/v1/ppa", bytes.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(runid.Header, run)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
		// First request must be in flight (holding the slot) before the
		// second queues, so the third deterministically overflows.
		waitUntil(t, func() bool { return router.Members()[0].QueueDepth == i+1 })
	}

	resp := postPPA(t, rsrv.URL, body, "run-2")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q", got, "7")
	}
	var shed struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil || !strings.Contains(shed.Error, "queue-full") {
		t.Errorf("shed body %+v, %v; want queue-full reason", shed, err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("queued request finished with %d, want 200", code)
		}
	}
}

// TestRouterDrainReroutesWithoutDuplicateEvals is satellite 3: draining a
// shard finishes its in-flight job, re-hashes new PPA work to the
// survivor, and — proven by a cache shared across both shards — no
// evaluation runs twice in the process. The drained shard refuses a job it
// does not hold, and with FailAfter 1 that refusal would take it down if it
// counted as a failure.
func TestRouterDrainReroutesWithoutDuplicateEvals(t *testing.T) {
	shared := evalcache.New(0)
	mk := func() http.Handler {
		return dist.NewServerWith(
			evalcache.Spatial{Inner: maestro.Engine{}, Cache: shared},
			evalcache.Ascend{Inner: camodel.Engine{}, Cache: shared},
		).Handler()
	}
	router, rsrv, shards := newTestFleet(t, 2, Options{FailAfter: 1}, mk)
	client := dist.NewClientOptions(rsrv.URL, nil,
		dist.Options{Timeout: 30 * time.Second, MaxRetries: 3, RetryBackoff: 2 * time.Millisecond})

	// Seed the cache through the router, noting which shard owns the key.
	body := spatialPPABody(t, 0)
	resp := postPPA(t, rsrv.URL, body, "run-a")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain eval status %d", resp.StatusCode)
	}
	var keyOwner *testShard
	for _, sh := range shards {
		if sh.ppaHits.Load() == 1 {
			keyOwner = sh
		}
	}
	if keyOwner == nil {
		t.Fatal("no shard served the pre-drain eval")
	}

	// A job under way on that shard before the drain...
	held := dist.AdvanceRequest{Spec: jobHomedAt(t, router, keyOwner.url, 1), Budget: 1}
	if _, err := client.AdvanceJobContext(context.Background(), held); err != nil {
		t.Fatal(err)
	}
	router.ProbeAll(context.Background())
	var jobOwner string
	for _, m := range router.Members() {
		if m.Jobs == 1 {
			jobOwner = m.ID
		}
	}
	if jobOwner != keyOwner.url {
		t.Fatalf("job held by %q, want its ring owner %s", jobOwner, keyOwner.url)
	}

	// Drain the shard owning the PPA key AND verify the job it holds still
	// advances there (a draining owner must finish what it holds).
	dresp, err := http.Post(rsrv.URL+"/v1/fleet/drain?shard="+keyOwner.url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", dresp.StatusCode)
	}

	replays := telemetry.FleetReplays().Value()
	jobHits := keyOwner.hits.Load()
	held.Budget, held.Seen = 2, 1
	state, err := client.AdvanceJobContext(context.Background(), held)
	if err != nil {
		t.Fatalf("AdvanceJob with one shard draining: %v", err)
	}
	if state.Spent != 2 {
		t.Errorf("spent %d, want 2", state.Spent)
	}
	if keyOwner.hits.Load() != jobHits+1 || telemetry.FleetReplays().Value() != replays {
		t.Errorf("the held job was not finished where it lives: %d requests to the draining owner, %d replays",
			keyOwner.hits.Load()-jobHits, telemetry.FleetReplays().Value()-replays)
	}

	// A job the draining shard does not hold is refused there (503 +
	// Retry-After), built on the survivor, and the refusal is not a failure.
	direct, err := json.Marshal(dist.AdvanceRequest{Spec: jobHomedAt(t, router, keyOwner.url, 2), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	refused, err := http.Post(keyOwner.url+"/v1/jobs/advance", "application/json", bytes.NewReader(direct))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, refused.Body)
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable || refused.Header.Get("Retry-After") == "" {
		t.Fatalf("draining shard answered an unheld job with %d (Retry-After %q), want 503 with Retry-After",
			refused.StatusCode, refused.Header.Get("Retry-After"))
	}
	fresh := dist.AdvanceRequest{Spec: jobHomedAt(t, router, keyOwner.url, 3), Budget: 1}
	if _, err := client.AdvanceJobContext(context.Background(), fresh); err != nil {
		t.Fatalf("new job homed at the draining shard: %v", err)
	}
	for _, m := range router.Members() {
		if m.ID == keyOwner.url && (m.State != "draining" || m.ConsecFails != 0) {
			t.Errorf("refusing a job it does not hold cost the draining shard: %+v", m)
		}
	}
	router.ProbeAll(context.Background())
	for _, m := range router.Members() {
		if want := 1; m.Jobs != want {
			t.Errorf("shard %s holds %d jobs, want %d (the held one there, the new one on the survivor)", m.ID, m.Jobs, want)
		}
	}

	// The drained shard refuses direct new work with 503 + Retry-After.
	directPPA := postPPA(t, keyOwner.url, body, "run-a")
	io.Copy(io.Discard, directPPA.Body)
	directPPA.Body.Close()
	if directPPA.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shard answered %d directly, want 503", directPPA.StatusCode)
	}

	// The same key through the router re-hashes to the survivor — served
	// from the shared cache, not recomputed.
	misses := shared.Stats().Misses
	before := keyOwner.ppaHits.Load()
	resp = postPPA(t, rsrv.URL, body, "run-a")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain eval status %d", resp.StatusCode)
	}
	if got := keyOwner.ppaHits.Load(); got != before {
		t.Errorf("draining shard served %d new PPA request(s); router did not re-hash", got-before)
	}
	if got := shared.Stats().Misses; got != misses {
		t.Errorf("re-routed eval recomputed (misses %d -> %d); want singleflight/cache to dedupe", misses, got)
	}

	// Undrain: the shard self-reports ok, a probe re-admits it, and the key
	// goes home.
	uresp, err := http.Post(rsrv.URL+"/v1/fleet/undrain?shard="+keyOwner.url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, uresp.Body)
	uresp.Body.Close()
	router.ProbeAll(context.Background())
	resp = postPPA(t, rsrv.URL, body, "run-a")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := keyOwner.ppaHits.Load(); got != before+1 {
		t.Errorf("undrained shard served %d new requests, want its key back (1)", got-before)
	}
}

// TestRouterAdmitsJobAdvancesPerRun: the only traffic a co-search sends —
// job advances — goes through the owning shard's admission gate like a PPA
// evaluation: one in flight on a capacity-1 shard, the rest queued and
// dequeued round-robin across run IDs, and past the queue 429 + Retry-After.
func TestRouterAdmitsJobAdvancesPerRun(t *testing.T) {
	var mu sync.Mutex
	var arrived []string
	gate := make(chan struct{})
	mk := func() http.Handler {
		inner := dist.NewServer().Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/jobs/advance" {
				mu.Lock()
				arrived = append(arrived, r.Header.Get(runid.Header))
				mu.Unlock()
				<-gate
			}
			inner.ServeHTTP(w, r)
		})
	}
	router, rsrv, _ := newTestFleet(t, 1, Options{ShardCapacity: 1, ShardQueue: 3}, mk)
	client := dist.NewClient(rsrv.URL, nil)
	advance := func(run string, seed int64) error {
		_, err := client.AdvanceJobContext(runid.With(context.Background(), run),
			dist.AdvanceRequest{Spec: edgeJob(seed), Budget: 1})
		return err
	}

	// run-a takes the slot and two queue entries before run-b's one arrives.
	results := make(chan error, 4)
	for i, run := range []string{"run-a", "run-a", "run-a", "run-b"} {
		go func() { results <- advance(run, int64(i)) }()
		waitUntil(t, func() bool { return router.Members()[0].QueueDepth == i+1 })
	}
	if err := advance("run-b", 4); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("advance past a full queue = %v, want a 429 shed", err)
	}

	for n := 1; n <= 4; n++ {
		waitUntil(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(arrived) == n
		})
		gate <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued advance failed: %v", err)
		}
	}
	// One at a time, and run-b's single request is not made to wait behind
	// all of run-a's.
	if want := []string{"run-a", "run-a", "run-b", "run-a"}; !reflect.DeepEqual(arrived, want) {
		t.Errorf("shard saw advances of %v, want %v", arrived, want)
	}
}
