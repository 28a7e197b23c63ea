package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/workload"
)

// newFaultyWorker starts a real worker behind a FaultInjector and returns a
// client built with the given resilience options.
func newFaultyWorker(t *testing.T, opts Options) (*FaultInjector, *Client) {
	t.Helper()
	inj := NewFaultInjector(NewServer().Handler())
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	return inj, NewClientOptions(srv.URL, srv.Client(), opts)
}

func spatialPPARequest() PPARequest {
	l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	return PPARequest{Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l}
}

func TestEvaluatePPARetriesOn500(t *testing.T) {
	inj, c := newFaultyWorker(t, Options{MaxRetries: 2, RetryBackoff: time.Millisecond})
	inj.FailNext(2)
	resp, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
	if err != nil {
		t.Fatalf("EvaluatePPA after 2 injected 500s: %v", err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
	if inj.Injected() != 2 {
		t.Errorf("injected %d faults, want 2", inj.Injected())
	}
}

func TestEvaluatePPANoRetryBudgetFails(t *testing.T) {
	inj, c := newFaultyWorker(t, Options{}) // MaxRetries 0
	inj.FailNext(1)
	if _, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest()); err == nil {
		t.Fatal("EvaluatePPA succeeded with no retry budget and an injected 500")
	}
	if inj.Injected() != 1 {
		t.Errorf("injected %d faults, want 1", inj.Injected())
	}
}

func TestEvaluatePPARetriesConnectionReset(t *testing.T) {
	inj, c := newFaultyWorker(t, Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
	inj.ResetNext(1)
	resp, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
	if err != nil {
		t.Fatalf("EvaluatePPA after injected connection reset: %v", err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected %d faults, want 1", inj.Injected())
	}
}

func TestClientTimeoutBoundsHangingWorker(t *testing.T) {
	inj := NewFaultInjector(NewServer().Handler())
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	// nil httpClient: the client must build its own timeout-bounded
	// transport instead of falling back to the hang-forever DefaultClient.
	c := NewClientOptions(srv.URL, nil, Options{Timeout: 100 * time.Millisecond})

	inj.HangNext(1, 500*time.Millisecond)
	startT := time.Now()
	_, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
	elapsed := time.Since(startT)
	if err == nil {
		t.Fatal("EvaluatePPA succeeded against a hanging worker")
	}
	if elapsed >= 450*time.Millisecond {
		t.Errorf("request took %v; timeout did not bound the hang", elapsed)
	}
}

func TestNonIdempotentRoutesNotRetried(t *testing.T) {
	inj, c := newFaultyWorker(t, Options{MaxRetries: 3, RetryBackoff: time.Millisecond})
	space := hw.NewSpatialSpace(hw.Edge)
	x := space.Encode(hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96, NoCBW: 64})
	spec := JobSpec{
		Platform: "spatial", Scenario: "edge",
		Networks: []string{"MobileNetV3-S"}, X: x, Algo: "flextensor", Seed: 1,
	}

	inj.FailNext(1)
	if _, err := c.CreateJob(spec); err == nil {
		t.Fatal("CreateJob succeeded through an injected 500")
	}
	if inj.Injected() != 1 {
		t.Fatalf("CreateJob consumed %d faults, want 1 (no retries)", inj.Injected())
	}

	id, err := c.CreateJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNext(1)
	if _, err := c.AdvanceJobContext(context.Background(), id, 2); err == nil {
		t.Fatal("AdvanceJob succeeded through an injected 500")
	}
	if inj.Injected() != 2 {
		t.Errorf("AdvanceJob consumed %d total faults, want 2 (no retries)", inj.Injected())
	}
}

func TestWorkerEvictionAndReadmission(t *testing.T) {
	_, good := newWorker(t)
	inj, flaky := newFaultyWorker(t, Options{})

	// Round-robin starts at workers[calls%len]: with calls=1 the flaky
	// worker (index 1) is tried first, so the injected failure lands on it.
	p, err := NewRemoteSpatialPlatform([]*Client{good, flaky}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	p.EvictAfter = 1
	p.ProbeEvery = 2

	space := hw.NewSpatialSpace(hw.Edge)
	x := space.Encode(hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96, NoCBW: 64})

	inj.FailNext(1)
	job := p.NewJob(x, 1) // flaky fails -> evicted; good takes the job
	job.Advance(1)
	if job.Spent() != 1 {
		t.Fatalf("failover job spent %d, want 1", job.Spent())
	}
	if n := p.EvictedWorkers(); n != 1 {
		t.Fatalf("evicted workers after failure = %d, want 1", n)
	}

	// The next NewJob hits the probe cadence (calls=2); the injector is out
	// of faults, so the health probe answers and the worker is re-admitted.
	job = p.NewJob(x, 2)
	job.Advance(1)
	if job.Spent() != 1 {
		t.Fatalf("post-probe job spent %d, want 1", job.Spent())
	}
	if n := p.EvictedWorkers(); n != 0 {
		t.Errorf("evicted workers after probe = %d, want 0", n)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected %d faults, want 1", inj.Injected())
	}
}

// TestDeadWorkerDoesNotStallCoSearch is the acceptance check for the client
// timeout + eviction combination: a co-search over one healthy worker and one
// worker that accepts connections but never answers must complete — and with
// the same results as a run against the healthy worker alone, since every
// candidate fails over to the healthy node.
func TestDeadWorkerDoesNotStallCoSearch(t *testing.T) {
	_, good := newWorker(t)

	block := make(chan struct{})
	hangSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	t.Cleanup(func() {
		close(block)
		hangSrv.Close()
	})
	dead := NewClientOptions(hangSrv.URL, nil, Options{Timeout: 100 * time.Millisecond})

	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2

	ref, err := NewRemoteSpatialPlatform([]*Client{good}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(ref, opt)

	p, err := NewRemoteSpatialPlatform([]*Client{good, dead}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	p.EvictAfter = 1

	done := make(chan core.Result, 1)
	go func() { done <- core.Run(p, opt) }()
	var got core.Result
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("co-search with one dead worker did not complete")
	}

	if len(got.All) != len(want.All) {
		t.Fatalf("evaluated %d candidates, want %d", len(got.All), len(want.All))
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("front with dead worker differs from healthy-only front:\n got %+v\nwant %+v", got.Front, want.Front)
	}
	if n := p.EvictedWorkers(); n != 1 {
		t.Errorf("evicted workers = %d, want 1 (the dead node)", n)
	}
}
