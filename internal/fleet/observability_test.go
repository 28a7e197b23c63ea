package fleet

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/hw"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// runCapture records the X-Unico-Run-ID header of every request each shard
// receives, keyed by the shard's host (the Host header of a direct HTTP/1
// connection is the shard's own address).
type runCapture struct {
	mu   sync.Mutex
	seen map[string]map[string][]string // host -> path -> run IDs, in arrival order
}

func newRunCapture() *runCapture {
	return &runCapture{seen: map[string]map[string][]string{}}
}

func (c *runCapture) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		byPath := c.seen[r.Host]
		if byPath == nil {
			byPath = map[string][]string{}
			c.seen[r.Host] = byPath
		}
		byPath[r.URL.Path] = append(byPath[r.URL.Path], r.Header.Get(runid.Header))
		c.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// runs returns the run IDs a shard saw on one path.
func (c *runCapture) runs(shardURL, path string) []string {
	host := strings.TrimPrefix(shardURL, "http://")
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.seen[host][path]...)
}

// enableTrace installs a span recorder for the test, tracing off afterwards.
func enableTrace(t *testing.T, path string) *disttrace.Recorder {
	t.Helper()
	rec, err := disttrace.NewRecorder(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	prev := disttrace.Active()
	disttrace.Enable(rec)
	t.Cleanup(func() {
		disttrace.Enable(prev)
		rec.Close()
	})
	return rec
}

// TestRunIDSurvivesReplayChain: the run ID set by the client must arrive on
// the shard through the router not just on the first hop to a job's owner
// but on the hop that replaces it — the same advance forwarded to the next
// shard along the ring after the owner is killed, where the job is rebuilt
// and its spent budget replayed.
func TestRunIDSurvivesReplayChain(t *testing.T) {
	capture := newRunCapture()
	mk := func() http.Handler { return capture.wrap(dist.NewServer().Handler()) }
	router, rsrv, shards := newTestFleet(t, 2, Options{FailAfter: 1}, mk)

	const myRun = "prop-run-7f3a"
	ctx := runid.With(context.Background(), myRun)
	client := dist.NewClientOptions(rsrv.URL, nil,
		dist.Options{Timeout: 30 * time.Second, MaxRetries: 3, RetryBackoff: 2 * time.Millisecond})

	req := dist.AdvanceRequest{Spec: edgeJob(1), Budget: 1}
	if _, err := client.AdvanceJobContext(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Find the owner and the survivor.
	router.ProbeAll(context.Background())
	var owner, survivor *testShard
	for _, m := range router.Members() {
		for _, sh := range shards {
			if sh.url != m.ID {
				continue
			}
			if m.Jobs == 1 {
				owner = sh
			} else {
				survivor = sh
			}
		}
	}
	if owner == nil || survivor == nil {
		t.Fatalf("could not identify job owner and survivor among %d shards", len(shards))
	}

	// Kill the owner with total state loss; the next advance must be
	// answered by the survivor (FailAfter 1 takes the owner off the ring at
	// the first failed forward), which replays the budget already spent.
	owner.inj.SetDown(true)
	owner.restart(capture.wrap(dist.NewServer().Handler()))

	replays := telemetry.FleetReplays().Value()
	req.Budget, req.Seen = 3, 1
	state, err := client.AdvanceJobContext(ctx, req)
	if err != nil {
		t.Fatalf("AdvanceJob after owner kill: %v", err)
	}
	if state.Spent != 3 {
		t.Errorf("spent %d, want 3", state.Spent)
	}
	if d := telemetry.FleetReplays().Value() - replays; d != 1 {
		t.Errorf("%d replays counted for one job rebuilt on the survivor, want 1", d)
	}

	// Both legs carried the client's run ID: the owner's first advance and
	// the advance the router moved to the survivor.
	for name, sh := range map[string]*testShard{"owner": owner, "survivor": survivor} {
		got := capture.runs(sh.url, "/v1/jobs/advance")
		if len(got) == 0 {
			t.Errorf("%s saw no /v1/jobs/advance request", name)
		}
		for i, run := range got {
			if run != myRun {
				t.Errorf("%s advance %d carried run ID %q, want %q", name, i, run, myRun)
			}
		}
	}
}

// TestFleetTraceChainCompleteUnderChaos is the tracing acceptance check: a
// co-search through a 3-shard fleet with a kill-restart mid-run must leave a
// span log whose merged trace has zero orphans and a complete
// client→router→shard→engine chain for every ok remote eval.
func TestFleetTraceChainCompleteUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-search; skipped in -short")
	}
	spanLog := filepath.Join(t.TempDir(), "spans.jsonl")
	enableTrace(t, spanLog)
	const run = "trace-chaos-run"
	ctx := runid.With(context.Background(), run)

	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2
	router, rsrv, shards := newTestFleet(t, 3, Options{FailAfter: 1}, nil)
	client := dist.NewClientOptions(rsrv.URL, nil, dist.Options{
		Timeout: 30 * time.Second, MaxRetries: 4,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan core.Result, 1)
	go func() { done <- core.RunContext(ctx, p, opt) }()

	// The victim is whichever shard the search reaches first: shard ports,
	// and with them ring placement, differ from run to run, and a fixed index
	// may own none of this small search's eight jobs.
	var victim *testShard
	waitUntil(t, func() bool {
		for _, sh := range shards {
			if sh.hits.Load() >= 1 {
				victim = sh
				return true
			}
		}
		return false
	})
	victim.inj.SetDown(true)
	victim.restart(dist.NewServer().Handler())
	time.Sleep(50 * time.Millisecond)
	victim.inj.SetDown(false)
	router.ProbeAll(context.Background())

	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("co-search did not complete")
	}

	events, skipped, err := disttrace.LoadFiles(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("span log has %d malformed/duplicate lines, want 0", skipped)
	}
	var tr *disttrace.Trace
	for _, cand := range disttrace.BuildTraces(events) {
		if cand.ID == run {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatalf("no trace %q in span log", run)
	}
	a := disttrace.Analyze(tr)
	s := a.Summary

	if s.Orphans != 0 {
		t.Errorf("%d orphan spans, want 0 (fsynced start-before-child must prevent them)", s.Orphans)
	}
	if s.IncompleteChains != 0 {
		t.Errorf("%d ok evals without a complete client→…→engine chain, want 0", s.IncompleteChains)
	}
	if s.Evals == 0 || s.CompleteChains == 0 {
		t.Fatalf("evals=%d complete=%d; the co-search produced no traced remote evals", s.Evals, s.CompleteChains)
	}
	// Every hop of the distributed chain must appear in the trace: the
	// client side, the router's forward, the shard handler, and the engine.
	for _, kind := range []string{"iteration", "client", "attempt", "forward", "shard", "engine"} {
		if s.SpansByKind[kind] == 0 {
			t.Errorf("no %q spans in trace; the %s hop is not instrumented end to end", kind, kind)
		}
	}
	t.Logf("trace %s: %d spans, %d evals (%d complete chains), kinds %v",
		s.Trace, s.Spans, s.Evals, s.CompleteChains, s.SpansByKind)
}

// requestsByRun counts the requests on path the shards saw, by run ID.
func (c *runCapture) requestsByRun(path string) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, byPath := range c.seen {
		for _, run := range byPath[path] {
			out[run]++
		}
	}
	return out
}

// TestTwoCoSearchesOneFleet runs two co-searches concurrently through one
// router and two shards, sharing one client, one platform and one span
// recorder, and requires each run's identity to stay its own all the way
// down: every request a shard receives carries its issuer's run ID (as many
// advances per run as that run sends alone, and each release on both
// shards), every client span sits in its run's trace under one of that
// run's iteration spans, and no span is orphaned. Nothing process-wide is
// left to say which run a request belongs to — its context does. The pool
// sends a run's releases once none of its jobs is open, which next to
// another run happens at other moments than alone, so only the advances
// are counted alike; the shards hold no job when both runs are done.
func TestTwoCoSearchesOneFleet(t *testing.T) {
	spanLog := filepath.Join(t.TempDir(), "spans.jsonl")
	enableTrace(t, spanLog)
	capture := newRunCapture()
	var workers []*dist.Server
	_, rsrv, shards := newTestFleet(t, 2, Options{}, func() http.Handler {
		w := dist.NewServer()
		workers = append(workers, w)
		return capture.wrap(w.Handler())
	})
	client := dist.NewClientOptions(rsrv.URL, nil, dist.Options{Timeout: 30 * time.Second})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	search := func(id string, seed int64) core.Result {
		opt := core.UNICOOptions(4, 2, 10, seed)
		opt.Workers = 2
		return core.RunContext(runid.With(context.Background(), id), p, opt)
	}

	seeds := []int64{3, 4}
	solo := make([]core.Result, len(seeds))
	for i, seed := range seeds {
		solo[i] = search(fmt.Sprintf("solo-%d", i), seed)
	}
	both := make([]core.Result, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i] = search(fmt.Sprintf("both-%d", i), seed)
		}()
	}
	wg.Wait()

	advances, releases := capture.requestsByRun("/v1/jobs/advance"), capture.requestsByRun("/v1/jobs/release")
	for i := range seeds {
		if both[i].Evals == 0 || both[i].Evals != solo[i].Evals || both[i].Hours != solo[i].Hours {
			t.Errorf("run %d: %d evals, %v h next to another run; %d evals, %v h alone",
				i, both[i].Evals, both[i].Hours, solo[i].Evals, solo[i].Hours)
		}
		alone, together := advances[fmt.Sprintf("solo-%d", i)], advances[fmt.Sprintf("both-%d", i)]
		if alone == 0 || together != alone {
			t.Errorf("run %d: shards saw %d advances under its ID next to another run, %d alone", i, together, alone)
		}
	}
	for _, byRun := range []map[string]int{advances, releases} {
		for run, n := range byRun {
			if !strings.HasPrefix(run, "solo-") && !strings.HasPrefix(run, "both-") {
				t.Errorf("shards saw %d requests under run ID %q, which no run has", n, run)
			}
		}
	}
	for i, w := range workers {
		if n := w.JobCount(); n != 0 {
			t.Errorf("shard %d holds %d jobs after both runs", i, n)
		}
	}

	events, skipped, err := disttrace.LoadFiles(spanLog)
	if err != nil || skipped != 0 {
		t.Fatalf("span log: %v, %d lines skipped", err, skipped)
	}
	traces := map[string]*disttrace.Trace{}
	for _, tr := range disttrace.BuildTraces(events) {
		traces[tr.ID] = tr
	}
	if len(traces) != 2*len(seeds) {
		t.Errorf("%d traces in the span log, want one per run (%d)", len(traces), 2*len(seeds))
	}
	for i := range seeds {
		id := fmt.Sprintf("both-%d", i)
		tr := traces[id]
		if tr == nil {
			t.Errorf("no trace %q in the span log", id)
			continue
		}
		if inc := disttrace.Analyze(tr).Summary.IncompleteSpans; len(tr.Orphans) != 0 || inc != 0 {
			t.Errorf("trace %s: %d orphan and %d incomplete spans, want none", id, len(tr.Orphans), inc)
		}
		kind := map[string]string{}
		for _, s := range tr.Spans {
			kind[s.ID] = s.Kind
		}
		clients := map[string]int{}
		for _, s := range tr.Spans {
			if s.Kind != "client" {
				continue
			}
			clients[s.Name]++
			if kind[s.Parent] != "iteration" {
				t.Errorf("trace %s: client span %s (%s) has parent %q of kind %q, want one of the run's iteration spans",
					id, s.ID, s.Name, s.Parent, kind[s.Parent])
			}
		}
		// No retries and no failover here, so a client span is a request,
		// and the router passes each release to both shards.
		if n := clients["/v1/jobs/advance"]; n != advances[id] {
			t.Errorf("trace %s holds %d advance client spans; the shards saw %d advances under that ID", id, n, advances[id])
		}
		if n := clients["/v1/jobs/release"]; n == 0 || releases[id] != len(shards)*n {
			t.Errorf("trace %s holds %d release client spans; the shards saw %d releases under that ID, want %d each",
				id, n, releases[id], len(shards))
		}
	}
}
