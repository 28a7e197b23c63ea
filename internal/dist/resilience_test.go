package dist

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
	"unico/internal/dist/disttest"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// newFaultyWorker starts a real worker behind a FaultInjector and returns a
// client built with the given resilience options.
func newFaultyWorker(t *testing.T, opts Options) (*disttest.FaultInjector, *Client) {
	t.Helper()
	inj := disttest.NewFaultInjector(NewServer().Handler())
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
	inj := disttest.NewFaultInjector(NewServer().Handler())
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

// TestAdvanceRidesRetries: an advance names its spec and cumulative budget,
// so a transient failure on the route is retried like any other — the
// answer is the fault-free one and the candidate is not lost. (Before the
// advance was idempotent one 500 latched the job dead.)
func TestAdvanceRidesRetries(t *testing.T) {
	req := AdvanceRequest{Spec: testSpec(1), Budget: 3}
	_, ref := newWorker(t)
	want, err := ref.AdvanceJobContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]func(*disttest.FaultInjector){
		"500":     func(inj *disttest.FaultInjector) { inj.FailNext(1) },
		"reset":   func(inj *disttest.FaultInjector) { inj.ResetNext(1) },
		"corrupt": func(inj *disttest.FaultInjector) { inj.CorruptNext(1) },
	}
	for name, inject := range faults {
		inj, c := newFaultyWorker(t, Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
		inject(inj)
		got, err := c.AdvanceJobContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: advance through one injected fault: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after a retried advance differs from the fault-free one:\n got %+v\nwant %+v", name, got, want)
		}
		if inj.Injected() != 1 {
			t.Errorf("%s: injected %d faults, want 1", name, inj.Injected())
		}

		// Through the platform the same fault costs no evaluation.
		inj, c = newFaultyWorker(t, Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
		job := newPoolJob(t, c)
		lost := telemetry.DistLostEvals().Value()
		inject(inj)
		job.Advance(3)
		if job.err != nil || job.Spent() != 3 {
			t.Errorf("%s: job after a retried advance: spent %d, err %v", name, job.Spent(), job.err)
		}
		if d := telemetry.DistLostEvals().Value() - lost; d != 0 {
			t.Errorf("%s: %d evaluations counted lost", name, d)
		}
	}
}

// dropResponses lets the wrapped worker process each of the next n requests
// in full and then answers with a truncated body: the work happened, the
// client never learned it.
type dropResponses struct {
	next http.Handler
	n    atomic.Int64
}

func (d *dropResponses) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.n.Add(-1) < 0 {
		d.next.ServeHTTP(w, r)
		return
	}
	d.next.ServeHTTP(httptest.NewRecorder(), r)
	_, _ = w.Write([]byte(`{"id":"`))
}

// TestAdvanceResentSpendsNothingTwice: when the answer to an advance is
// lost after the worker did the work, sending the advance again finds the
// job already at its target — Spent equals the target, the state is the
// fault-free one, and the engine is not called a second time. The same
// holds when the lost answer is disttest.FaultInjector.CorruptNext's, which drops
// the request before the worker sees it.
func TestAdvanceResentSpendsNothingTwice(t *testing.T) {
	req := AdvanceRequest{Spec: testSpec(1), Budget: 4}
	refSrv, refCalls := newCountingWorker(t)
	ref := httptest.NewServer(refSrv.Handler())
	t.Cleanup(ref.Close)
	want, err := NewClient(ref.URL, ref.Client()).AdvanceJobContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	worker, calls := newCountingWorker(t)
	drop := &dropResponses{next: worker.Handler()}
	inj := disttest.NewFaultInjector(drop)
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	c := NewClientOptions(srv.URL, srv.Client(), Options{MaxRetries: 2, RetryBackoff: time.Millisecond})

	inj.CorruptNext(1) // attempt 1: never reaches the worker
	drop.n.Store(1)    // attempt 2: the worker advances, the answer is lost
	got, err := c.AdvanceJobContext(context.Background(), req)
	if err != nil {
		t.Fatalf("advance through two lost answers: %v", err)
	}
	if got.Spent != req.Budget || !reflect.DeepEqual(got, want) {
		t.Errorf("state after the advance was sent three times:\n got %+v\nwant %+v", got, want)
	}
	if calls.Load() != refCalls.Load() {
		t.Errorf("engine called %d times, want the fault-free %d: a resent advance spent budget twice", calls.Load(), refCalls.Load())
	}
	if n := worker.JobCount(); n != 1 {
		t.Errorf("worker holds %d jobs after resends, want 1", n)
	}
}

func TestWorkerEvictionAndReadmission(t *testing.T) {
	_, good := newWorker(t)
	inj, flaky := newFaultyWorker(t, Options{})

	// Round-robin starts at workers[turn%len]: a job with an odd turn tries
	// the flaky worker (index 1) first, so jobs 1, 3 and 5 each take one
	// injected failure and fail over to the good worker, and the third
	// failure in a row evicts the flaky one. Jobs with even turns never
	// reach it, so they do not break the streak.
	p, err := NewRemoteSpatialPlatform([]*Client{good, flaky}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	x := testSpec(0).X

	inj.FailNext(DefaultEvictAfter)
	evictedAt := 2*DefaultEvictAfter - 1
	for turn := 1; turn <= DefaultProbeEvery; turn++ {
		job := p.NewJob(x, int64(turn))
		job.Advance(1)
		if job.Spent() != 1 {
			t.Fatalf("job %d spent %d, want 1", turn, job.Spent())
		}
		want := 0
		if turn >= evictedAt && turn < DefaultProbeEvery {
			want = 1
		}
		// Job DefaultProbeEvery's turn hits the probe cadence at its first
		// advance; the injector is out of faults, so the health probe
		// answers and the worker is re-admitted.
		if n := evictedWorkers(p); n != want {
			t.Fatalf("evicted workers after job %d = %d, want %d", turn, n, want)
		}
	}
	if inj.Injected() != DefaultEvictAfter {
		t.Errorf("injected %d faults, want %d", inj.Injected(), DefaultEvictAfter)
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
	want := core.RunContext(context.Background(), ref, opt)

	p, err := NewRemoteSpatialPlatform([]*Client{good, dead}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan core.Result, 1)
	go func() { done <- core.RunContext(context.Background(), p, opt) }()
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
	if n := evictedWorkers(p); n != 1 {
		t.Errorf("evicted workers = %d, want 1 (the dead node)", n)
	}
}

// TestPoolWorkerKilledMidJobBitIdentical is the direct-pool twin of the
// fleet's shard-kill check: two workers behind a RemoteSpatialPlatform, one
// killed for good at the moment a job it holds comes back for more budget.
// The job's advance fails over to the survivor, which builds it from the
// spec and replays the budget the dead worker had spent — so the co-search
// ends bit-identical to a single-worker run, with nothing lost.
func TestPoolWorkerKilledMidJobBitIdentical(t *testing.T) {
	opt := core.UNICOOptions(4, 3, 10, 3)
	opt.Workers = 2
	nets := []string{"MobileNetV3-S"}

	_, solo := newWorker(t)
	ref, err := NewRemoteSpatialPlatform([]*Client{solo}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunContext(context.Background(), ref, opt)

	_, survivor := newWorker(t)
	inj := disttest.NewFaultInjector(NewServer().Handler())
	var killed atomic.Bool
	victimSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Die on the first advance of a job already under way: the request
		// that triggers the kill is itself lost.
		if body, err := io.ReadAll(r.Body); err == nil {
			var req AdvanceRequest
			if json.Unmarshal(body, &req) == nil && req.Seen > 0 && killed.CompareAndSwap(false, true) {
				inj.SetDown(true)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inj.ServeHTTP(w, r)
	}))
	t.Cleanup(victimSrv.Close)
	victim := NewClient(victimSrv.URL, victimSrv.Client())

	p, err := NewRemoteSpatialPlatform([]*Client{survivor, victim}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	lost := telemetry.DistLostEvals().Value()
	replays := telemetry.FleetReplays().Value()
	got := core.RunContext(context.Background(), p, opt)

	if !killed.Load() {
		t.Fatal("the victim never saw a job come back for more budget; the kill exercised nothing")
	}
	if d := telemetry.DistLostEvals().Value() - lost; d != 0 {
		t.Errorf("lost %d evaluations to the killed worker", d)
	}
	if d := telemetry.FleetReplays().Value() - replays; d == 0 {
		t.Error("no replay counted although a job under way changed workers")
	}
	if !reflect.DeepEqual(got.Front, want.Front) {
		t.Errorf("Pareto front with a worker killed mid-job differs from the single-worker run:\n got %+v\nwant %+v", got.Front, want.Front)
	}
	if !reflect.DeepEqual(got.All, want.All) {
		t.Error("full evaluation history with a worker killed mid-job differs from the single-worker run")
	}
	if n := evictedWorkers(p); n != 1 {
		t.Errorf("evicted workers = %d, want 1 (the killed one)", n)
	}
}

// evictedWorkers returns how many workers are currently evicted from p's
// rotation.
func evictedWorkers(p *RemoteSpatialPlatform) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.evicted {
			n++
		}
	}
	return n
}
