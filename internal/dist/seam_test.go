package dist

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"unico/internal/core"
	"unico/internal/dist/disttest"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/workload"
)

// seamFaults scripts each fault kind of the injector, the oversized answer
// included. timeout is the client's: short only where the fault is a hang, so
// that no other cell turns on how fast four megabytes are read.
var seamFaults = []struct {
	name    string
	timeout time.Duration
	script  func(*disttest.FaultInjector)
}{
	{"fail", time.Minute, func(f *disttest.FaultInjector) { f.FailNext(1) }},
	{"hang", 40 * time.Millisecond, func(f *disttest.FaultInjector) { f.HangNext(1, 150*time.Millisecond) }},
	{"reset", time.Minute, func(f *disttest.FaultInjector) { f.ResetNext(1) }},
	{"corrupt", time.Minute, func(f *disttest.FaultInjector) { f.CorruptNext(1) }},
	{"oversize", time.Minute, func(f *disttest.FaultInjector) { f.OversizeNext(1, MaxBodyBytes) }},
}

// TestClientFaultMatrix: every fault the injector knows × every call a
// Client makes through the one exchange. The typed calls document one
// classification — a failed, hung, reset, undecodable or oversized answer is
// a retryable error and never a result — so with no retry budget each cell
// is a retryable error and a zero value, and with a budget of one the same
// call rides over the fault. A health check documents only "error": a worker
// that does not answer 200 with a decodable body is not healthy.
//
// The oversize column is the response cap: before the exchange was one
// function the client decoded an unbounded body, so that column passed an
// over-long answer through as a success.
func TestClientFaultMatrix(t *testing.T) {
	ctx := context.Background()
	advance := AdvanceRequest{Spec: testSpec(1), Budget: 2}
	calls := []struct {
		name string
		// call makes the request and reports whether it brought back
		// anything other than the zero value, and its error.
		call func(c *Client) (got bool, err error)
		// prepare, when set, runs before the fault is scripted.
		prepare func(t *testing.T, c *Client)
	}{
		{name: "advance", call: func(c *Client) (bool, error) {
			st, err := c.AdvanceJobContext(ctx, advance)
			return !reflect.DeepEqual(st, JobState{}), err
		}},
		{name: "release", call: func(c *Client) (bool, error) {
			return false, c.ReleaseJobsContext(ctx, []string{advance.Spec.Key()})
		}, prepare: func(t *testing.T, c *Client) {
			if _, err := c.AdvanceJobContext(ctx, advance); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "ppa", call: func(c *Client) (bool, error) {
			resp, err := c.EvaluatePPAContext(ctx, spatialPPARequest())
			return resp != PPAResponse{}, err
		}},
	}
	for _, fault := range seamFaults {
		for _, call := range calls {
			t.Run(call.name+"/"+fault.name, func(t *testing.T) {
				inj := disttest.NewFaultInjector(NewServer().Handler())
				srv := httptest.NewServer(inj)
				defer srv.Close()
				hc := &http.Client{Timeout: fault.timeout}
				once := NewClientOptions(srv.URL, hc, Options{})
				if call.prepare != nil {
					call.prepare(t, once)
				}
				fault.script(inj)
				got, err := call.call(once)
				if err == nil || !isRetryable(err) || got {
					t.Fatalf("no retry budget: err=%v (retryable %v), result kept %v; want a retryable error and no result",
						err, isRetryable(err), got)
				}
				fault.script(inj)
				retrying := NewClientOptions(srv.URL, hc, Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
				if _, err := call.call(retrying); err != nil {
					t.Fatalf("one retry did not ride over the fault: %v", err)
				}
			})
		}
		t.Run("health/"+fault.name, func(t *testing.T) {
			inj := disttest.NewFaultInjector(NewServer().Handler())
			srv := httptest.NewServer(inj)
			defer srv.Close()
			c := NewClient(srv.URL, &http.Client{Timeout: fault.timeout})
			fault.script(inj)
			if h, err := c.HealthContext(ctx); err == nil || h != (HealthResponse{}) {
				t.Fatalf("HealthContext = %+v, %v; want an error and no status", h, err)
			}
			if !c.HealthyContext(ctx) {
				t.Fatal("worker still unhealthy once the fault is spent")
			}
		})
	}
}

// FuzzClientResponse drives arbitrary status, Retry-After and body bytes
// through the exchange into each typed decoder: whatever the peer sends, the
// client does not panic, and a body that does not decode — or a status that
// is a failure — never comes back as a result.
func FuzzClientResponse(f *testing.F) {
	packed := answerBody(0, 1, 1, []uint32{1}, []float64{1.5})
	f.Add(200, "", packed)
	f.Add(200, "", packed[:len(packed)-5])
	f.Add(200, "", cut(packed, answerHeadBytes+4+4+2*8, 8))
	f.Add(200, "", answerBody(0, 1, 1, []uint32{2}, []float64{1.5}))
	f.Add(200, "", answerBody(1, 1, 1, nil, nil)) // from not the request's seen
	claims := answerBody(0, 1, 1, nil, nil)
	binary.LittleEndian.PutUint32(claims[answerHeadBytes:], 1) // a run the body does not hold
	f.Add(200, "", claims)
	f.Add(200, "", append(append([]byte(nil), packed...), 0))
	f.Add(400, "", []byte(`{"error":"seen 3 outside [0, budget 1]"}`))
	f.Add(200, "", []byte(`{"metrics":{"latency_ms":12.`))
	f.Add(503, "1", []byte(`{"error":"worker draining"}`))
	f.Add(429, "Mon, 02 Jan 2006 15:04:05 GMT", []byte{})
	f.Add(404, "-3", []byte(`{"error":"unknown job"}`))
	f.Add(200, "", []byte(`{"released":2}`))
	f.Add(200, "", []byte(`{"status":"ok","jobs":1} trailing`))
	f.Add(500, "", []byte(`null`))
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		if status < 200 || status > 599 {
			t.Skip()
		}
		hc := &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			rec := httptest.NewRecorder()
			if retryAfter != "" {
				rec.Header().Set("Retry-After", retryAfter)
			}
			rec.WriteHeader(status)
			rec.Write(body)
			return rec.Result(), nil
		})}
		c := NewClient("http://worker", hc)
		ctx := context.Background()
		failure := status == http.StatusTooManyRequests || status >= 500

		state, err := c.AdvanceJobContext(ctx, AdvanceRequest{Spec: testSpec(1), Budget: 1})
		if (err != nil || failure) && !reflect.DeepEqual(state, JobState{}) {
			t.Fatalf("advance kept %+v alongside err=%v status=%d", state, err, status)
		}
		if failure && !isRetryable(err) {
			t.Fatalf("advance: status %d gave %v, want a retryable error", status, err)
		}
		if err == nil && (len(state.History) != 1 || len(state.Raw) != 1) {
			t.Fatalf("advance to 1 accepted %d and %d points", len(state.History), len(state.Raw))
		}
		resp, err := c.EvaluatePPAContext(ctx, spatialPPARequest())
		if (err != nil || failure) && resp != (PPAResponse{}) {
			t.Fatalf("ppa kept %+v alongside err=%v status=%d", resp, err, status)
		}
		if err := c.ReleaseJobsContext(ctx, []string{"k"}); failure && !isRetryable(err) {
			t.Fatalf("release: status %d gave %v, want a retryable error", status, err)
		}
		h, err := c.HealthContext(ctx)
		if (err != nil || status != http.StatusOK) && h != (HealthResponse{}) {
			t.Fatalf("health kept %+v alongside err=%v status=%d", h, err, status)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestServerSearchIsThePlatforms: the searcher a Server builds from a
// JobSpec is the one platform.New*(…).NewJob builds for the same hardware
// and seed — the same History, RawHistory and Best after the same budgets —
// on both scenarios of the spatial platform and on the Ascend-like one. So is
// what the master holds of the job over the wire after every installment, an
// empty one included: the points each answer carries, appended.
func TestServerSearchIsThePlatforms(t *testing.T) {
	nets := []string{"MobileNetV3-S", "FSRCNN-120x320"}
	ws, err := lookupNetworks(nets)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newWorker(t)
	pool, err := NewRemoteSpatialPlatform([]*Client{c}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		local core.Platform
		spec  JobSpec
	}{
		{"spatial-edge", platform.NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike),
			JobSpec{Platform: "spatial", Scenario: "edge", Networks: nets}},
		{"spatial-cloud", platform.NewSpatial(hw.Cloud, ws, mapsearch.FlexTensorLike),
			JobSpec{Platform: "spatial", Scenario: "cloud", Networks: nets, Algo: "flextensor"}},
		{"ascend", platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst),
			JobSpec{Platform: "ascend", Networks: []string{"DLEU"}, Algo: "depthfirst"}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 11
			spec := tc.spec
			spec.X, spec.Seed = tc.local.Space().Sample(rand.New(rand.NewSource(int64(3+i)))), seed
			var served serverJob
			if err := served.build(NewServer(), spec); err != nil {
				t.Fatal(err)
			}
			local := tc.local.NewJob(spec.X, seed)
			searchers := map[string]mapsearch.Searcher{"served": served.searcher, "master": &remoteJob{pool: pool, spec: spec}}
			for _, budget := range []int{3, 0, 5, 9} {
				local.Advance(budget)
				for name, s := range searchers {
					s.Advance(budget)
					if got, want := s.History(), local.History(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, after %d more: History %v, platform's %v", name, budget, got, want)
					}
					if got, want := s.RawHistory(), local.RawHistory(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, after %d more: RawHistory %v, platform's %v", name, budget, got, want)
					}
					gotBest, gotOK := s.Best()
					wantBest, wantOK := local.Best()
					if gotBest != wantBest || gotOK != wantOK {
						t.Fatalf("%s, after %d more: Best %v %v, platform's %v %v", name, budget, gotBest, gotOK, wantBest, wantOK)
					}
					if got, want := s.Tally(), local.Tally(); got != want || want.Calls == 0 {
						t.Fatalf("%s, after %d more: Tally %+v, platform's %+v", name, budget, got, want)
					}
				}
			}
		})
	}
}

// TestRemotePlatformAccountsLikeLocal: everything but the search itself is
// the local platform's, so a remote run charges the simulated clock, applies
// the caps and renders hardware exactly as a local run of the same workload.
func TestRemotePlatformAccountsLikeLocal(t *testing.T) {
	nets := []string{"MobileNetV3-S", "FSRCNN-120x320"}
	ws, err := lookupNetworks(nets)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newWorker(t)
	for _, sc := range []hw.Scenario{hw.Edge, hw.Cloud} {
		local := platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)
		remote, err := NewRemoteSpatialPlatform([]*Client{c}, sc, nets)
		if err != nil {
			t.Fatal(err)
		}
		x := local.Space().Sample(rand.New(rand.NewSource(4)))
		if got, want := remote.EvalCostSeconds(), local.EvalCostSeconds(); got != want {
			t.Errorf("%v: EvalCostSeconds %v, local %v", sc, got, want)
		}
		if got, want := remote.PowerCapMW(), local.PowerCapMW(); got != want {
			t.Errorf("%v: PowerCapMW %v, local %v", sc, got, want)
		}
		if got, want := remote.AreaCapMM2(), local.AreaCapMM2(); got != want {
			t.Errorf("%v: AreaCapMM2 %v, local %v", sc, got, want)
		}
		if got, want := remote.Describe(x), local.Describe(x); got != want {
			t.Errorf("%v: Describe %q, local %q", sc, got, want)
		}
		if got, want := remote.Workload().Name, local.Workload().Name; got != want {
			t.Errorf("%v: Workload %q, local %q", sc, got, want)
		}
		if got, want := remote.Space().Dim(), local.Space().Dim(); got != want {
			t.Errorf("%v: Space().Dim %d, local %d", sc, got, want)
		}
	}
}
