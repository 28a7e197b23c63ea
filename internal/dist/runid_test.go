package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// TestClientPropagatesRunID pins the cross-boundary correlation contract:
// every request a dist client issues carries the run ID of the context it
// was issued under in the X-Unico-Run-ID header — two runs sharing one client
// each send their own — and the worker's handler counts requests under that
// run ID, so a ppaserver log line or metric is attributable to the exact
// co-search run that caused it.
func TestClientPropagatesRunID(t *testing.T) {
	const id = "testrun01"
	ctx := runid.With(context.Background(), id)

	var mu sync.Mutex
	var seen []string
	inner := NewServer().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(runid.Header))
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	before := telemetry.DistRunRequests(id).Value()

	l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	if _, err := c.EvaluatePPAContext(ctx, PPARequest{
		Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceJobContext(ctx, AdvanceRequest{Spec: testSpec(1), Budget: 1}); err != nil {
		t.Fatal(err)
	}
	_ = c.ReleaseJobsContext(ctx, []string{testSpec(1).Key()})
	// The same client under another run's context sends that run's ID.
	const other = "testrun02"
	if _, err := c.AdvanceJobContext(runid.With(ctx, other), AdvanceRequest{Spec: testSpec(2), Budget: 1}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("captured %d requests, want 4 (ppa, job advance, job release, the other run's advance)", len(seen))
	}
	for i, h := range seen {
		want := id
		if i == 3 {
			want = other
		}
		if h != want {
			t.Errorf("request %d carried run ID %q, want %q", i, h, want)
		}
	}
	if got := telemetry.DistRunRequests(id).Value(); got != before+3 {
		t.Errorf("unico_dist_run_requests_total{run_id=%s} = %d, want %d", id, got, before+3)
	}
}

// TestRunIDHeaderAbsentWithoutProcessID: under a context that belongs to no
// run — there is no process-wide ID to fall back on — clients send no header
// and the server folds the count under "unknown".
func TestRunIDHeaderAbsentWithoutProcessID(t *testing.T) {
	var got string
	hit := false
	inner := NewServer().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(runid.Header)
		hit = true
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	before := telemetry.DistRunRequests("").Value()
	if !NewClient(srv.URL, srv.Client()).HealthyContext(context.Background()) {
		t.Fatal("worker not healthy")
	}
	if !hit {
		t.Fatal("no request captured")
	}
	if got != "" {
		t.Errorf("header sent without a process run ID: %q", got)
	}
	if after := telemetry.DistRunRequests("").Value(); after != before+1 {
		t.Errorf("unknown-run counter went %d -> %d, want +1", before, after)
	}
}
