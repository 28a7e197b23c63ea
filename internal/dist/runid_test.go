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
// every request a dist client issues carries the process run ID in the
// X-Unico-Run-ID header, and the worker's handler counts requests under that
// run ID — so a ppaserver log line or metric is attributable to the exact
// co-search run that caused it.
func TestClientPropagatesRunID(t *testing.T) {
	const id = "testrun01"
	prev := runid.Current()
	runid.Set(id)
	defer runid.Set(prev)

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
	if _, err := c.EvaluatePPAContext(context.Background(), PPARequest{
		Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: testSpec(1), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.DeleteJob(st.ID)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 3 {
		t.Fatalf("captured %d requests, want >= 3 (ppa, job advance, job delete)", len(seen))
	}
	for i, h := range seen {
		if h != id {
			t.Errorf("request %d carried run ID %q, want %q", i, h, id)
		}
	}
	if got := telemetry.DistRunRequests(id).Value(); got < before+uint64(len(seen)) {
		t.Errorf("unico_dist_run_requests_total{run_id=%s} = %d, want >= %d", id, got, before+uint64(len(seen)))
	}
}

// TestRunIDHeaderAbsentWithoutProcessID: with no process run ID installed,
// clients send no header and the server folds the count under "unknown".
func TestRunIDHeaderAbsentWithoutProcessID(t *testing.T) {
	prev := runid.Current()
	runid.Set("")
	defer runid.Set(prev)

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
	if !NewClient(srv.URL, srv.Client()).Healthy() {
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
