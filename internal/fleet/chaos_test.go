package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/hw"
	"unico/internal/telemetry"
)

// TestChaosShardKillRestartBitIdentical is the keystone robustness check:
// a full co-search through a 3-shard fleet, with one shard kill -9'd
// mid-run (losing every job it hosted) and restarted empty, must finish
// with results bit-identical to a fault-free run — zero evaluations lost,
// zero double-counted, the failure visible only as replays and latency.
func TestChaosShardKillRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-search; skipped in -short")
	}
	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2
	nets := []string{"MobileNetV3-S"}

	// Fault-free reference: one plain worker. Evaluation is deterministic,
	// so any healthy topology yields the same result.
	refSrv := httptest.NewServer(dist.NewServer().Handler())
	t.Cleanup(refSrv.Close)
	refClient := dist.NewClient(refSrv.URL, refSrv.Client())
	ref, err := dist.NewRemoteSpatialPlatform([]*dist.Client{refClient}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunContext(context.Background(), ref, opt)

	// The fleet under chaos: 3 shards, first failure takes a shard off the
	// ring (FailAfter 1) so failover is immediate.
	router, rsrv, shards := newTestFleet(t, 3, Options{FailAfter: 1}, nil)
	client := dist.NewClientOptions(rsrv.URL, nil, dist.Options{
		Timeout: 30 * time.Second, MaxRetries: 4,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}

	lostBefore := telemetry.DistLostEvals().Value()
	replaysBefore := telemetry.FleetReplays().Value()

	done := make(chan core.Result, 1)
	var finished atomic.Bool
	go func() {
		res := core.RunContext(context.Background(), p, opt)
		finished.Store(true)
		done <- res
	}()

	// Kill shard 1 once it has served real traffic, restart it with all
	// in-memory job state gone, then let a health probe re-admit it. If
	// the search outruns us the kill degenerates to a no-op restart and
	// the bit-identity asserts below still hold.
	victim := shards[1]
	waitUntil(t, func() bool { return victim.hits.Load() >= 1 || finished.Load() })
	victim.inj.SetDown(true)
	victim.restart(dist.NewServer().Handler())
	time.Sleep(50 * time.Millisecond)
	victim.inj.SetDown(false)
	router.ProbeAll(context.Background())

	var got core.Result
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("co-search did not complete with a shard killed and restarted mid-run")
	}

	if lost := telemetry.DistLostEvals().Value() - lostBefore; lost != 0 {
		t.Errorf("lost %d evaluations; the fleet must absorb a shard kill without dropping work", lost)
	}
	if len(got.All) != len(want.All) {
		t.Fatalf("evaluated %d candidates, want %d (lost or double-counted evals)", len(got.All), len(want.All))
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("Pareto front under chaos differs from fault-free run:\n got %+v\nwant %+v", got.Front, want.Front)
	}
	if !reflect.DeepEqual(got.All, want.All) {
		t.Errorf("full evaluation history under chaos differs from fault-free run")
	}
	t.Logf("chaos run: %d evals, %d job replays",
		len(got.All), telemetry.FleetReplays().Value()-replaysBefore)
}

// TestChaosFlappingShardProbabilistic: a shard flapping with seeded
// probabilistic 500s and connection resets must never corrupt results —
// the run completes bit-identical to the fault-free reference.
func TestChaosFlappingShardProbabilistic(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-search; skipped in -short")
	}
	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2
	nets := []string{"MobileNetV3-S"}

	refSrv := httptest.NewServer(dist.NewServer().Handler())
	t.Cleanup(refSrv.Close)
	refClient := dist.NewClient(refSrv.URL, refSrv.Client())
	ref, err := dist.NewRemoteSpatialPlatform([]*dist.Client{refClient}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunContext(context.Background(), ref, opt)

	router, rsrv, shards := newTestFleet(t, 3, Options{FailAfter: 2}, nil)
	shards[2].inj.Probabilistic(7, 0.10, 0.05, 0)
	client := dist.NewClientOptions(rsrv.URL, nil, dist.Options{
		Timeout: 30 * time.Second, MaxRetries: 4,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}

	lostBefore := telemetry.DistLostEvals().Value()
	done := make(chan core.Result, 1)
	go func() { done <- core.RunContext(context.Background(), p, opt) }()
	// Keep re-admitting the flapping shard so faults keep landing on it.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	go func() {
		for probeCtx.Err() == nil {
			router.ProbeAll(probeCtx)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	var got core.Result
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("co-search did not complete against a flapping shard")
	}
	stopProbes()

	if lost := telemetry.DistLostEvals().Value() - lostBefore; lost != 0 {
		t.Errorf("lost %d evaluations to a flapping shard", lost)
	}
	if len(got.All) != len(want.All) {
		t.Fatalf("evaluated %d candidates, want %d", len(got.All), len(want.All))
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("Pareto front with flapping shard differs from fault-free run:\n got %+v\nwant %+v", got.Front, want.Front)
	}
	if shards[2].inj.Injected() == 0 {
		t.Log("note: no faults fired this run; chaos exercised nothing (seeded draws)")
	}
}

// TestChaosRouterReplacedMidRun: the router holds nothing a job needs, so a
// co-search whose router is replaced mid-run — by a fresh Router over the
// same shards, the moment the first job comes back for more budget — must
// finish bit-identical to the fault-free run, with nothing lost and nothing
// rebuilt. (A router that kept a job table answered "unknown job fj-N" to
// every job under way.)
func TestChaosRouterReplacedMidRun(t *testing.T) {
	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2
	nets := []string{"MobileNetV3-S"}

	refSrv := httptest.NewServer(dist.NewServer().Handler())
	t.Cleanup(refSrv.Close)
	ref, err := dist.NewRemoteSpatialPlatform([]*dist.Client{dist.NewClient(refSrv.URL, refSrv.Client())}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunContext(context.Background(), ref, opt)

	router, _, shards := newTestFleet(t, 3, Options{}, nil)
	urls := make([]string, len(shards))
	for i, sh := range shards {
		urls[i] = sh.url
	}
	front := newSwappable(router.Handler())
	var replaced atomic.Bool
	fsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, err := io.ReadAll(r.Body); err == nil {
			var req dist.AdvanceRequest
			if json.Unmarshal(body, &req) == nil && req.Seen > 0 && replaced.CompareAndSwap(false, true) {
				fresh, err := NewRouter(urls, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				front.v.Store(fresh.Handler())
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		front.ServeHTTP(w, r)
	}))
	t.Cleanup(fsrv.Close)

	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{dist.NewClient(fsrv.URL, nil)}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	lost := telemetry.DistLostEvals().Value()
	replays := telemetry.FleetReplays().Value()
	got := core.RunContext(context.Background(), p, opt)

	if !replaced.Load() {
		t.Fatal("no job came back for more budget; the router was never replaced")
	}
	if d := telemetry.DistLostEvals().Value() - lost; d != 0 {
		t.Errorf("lost %d evaluations to the router replacement", d)
	}
	if d := telemetry.FleetReplays().Value() - replays; d != 0 {
		t.Errorf("%d jobs rebuilt although every shard kept its state", d)
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("Pareto front across a router replacement differs from fault-free run:\n got %+v\nwant %+v", got.Front, want.Front)
	}
	if !reflect.DeepEqual(got.All, want.All) {
		t.Error("full evaluation history across a router replacement differs from fault-free run")
	}
}
