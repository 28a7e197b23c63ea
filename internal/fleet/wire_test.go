package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"unico/internal/dist"
)

// fuzzBudgetCap keeps the fuzzers on the decoders: an input that decodes to
// a well-formed request asking for more search than this is skipped, not run.
const fuzzBudgetCap = 3

// fuzzFleet is a router over two in-process workers whose handlers it calls
// directly: no listeners, so a fuzz worker runs thousands of requests a
// second.
type fuzzFleet struct {
	router  *Router
	workers map[string]*dist.Server
}

func newFuzzFleet(t *testing.T) *fuzzFleet {
	t.Helper()
	f := &fuzzFleet{workers: map[string]*dist.Server{"s1": dist.NewServer(), "s2": dist.NewServer()}}
	router, err := NewRouter([]string{"http://s1", "http://s2"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range router.members {
		m.forward = dist.NewClient(m.id, &http.Client{Transport: f})
	}
	f.router = router
	return f
}

// RoundTrip serves a forwarded request from the named worker's handler.
func (f *fuzzFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	f.workers[req.URL.Host].Handler().ServeHTTP(rec, req)
	return rec.Result(), nil
}

func (f *fuzzFleet) jobs() int {
	n := 0
	for _, w := range f.workers {
		n += w.JobCount()
	}
	return n
}

// post sends body to the router and fails the test on a 5xx or on a shard
// charged with a failure: malformed input is the client's fault, never the
// shard's.
func (f *fuzzFleet) post(t *testing.T, path string, body []byte) int {
	t.Helper()
	rec := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code >= http.StatusInternalServerError {
		t.Fatalf("router answered %d for %q", rec.Code, body)
	}
	for _, m := range f.router.Members() {
		if m.State != "active" || m.ConsecFails != 0 {
			t.Fatalf("input %q cost a shard: %+v", body, m)
		}
	}
	return rec.Code
}

// FuzzRouterAdvance throws arbitrary bytes at the router's POST
// /v1/jobs/advance: no panic, no 5xx, no shard marked failed, and a job
// held afterwards only when the answer was 200.
func FuzzRouterAdvance(f *testing.F) {
	valid, err := json.Marshal(dist.AdvanceRequest{Spec: edgeJob(1), Budget: 2, Seen: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"spec":{"platform":"spatial","networks":["MobileNetV3-S"],"x":[0.5]},"budget":1}`))
	f.Add([]byte(`{"spec":{"platform":"warp"},"budget":-1}`))
	f.Add([]byte(`{"spec":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req dist.AdvanceRequest
		if json.Unmarshal(data, &req) == nil && req.Budget > fuzzBudgetCap {
			t.Skip("well-formed request for a long search")
		}
		fleet := newFuzzFleet(t)
		held := 0
		if fleet.post(t, "/v1/jobs/advance", data) == http.StatusOK {
			held = 1
		}
		if n := fleet.jobs(); n != held {
			t.Fatalf("%d jobs held after %q, want %d", n, data, held)
		}
	})
}

// FuzzRouterPPA is the same contract for the router's POST /v1/ppa.
func FuzzRouterPPA(f *testing.F) {
	f.Add(spatialPPABody(f, 0))
	f.Add([]byte(`{"platform":"ascend","ascend_hw":{},"ascend_mapping":{},"layer":{}}`))
	f.Add([]byte(`{"platform":"spatial"}`))
	f.Add([]byte(`[1,2`))
	f.Fuzz(func(t *testing.T, data []byte) {
		newFuzzFleet(t).post(t, "/v1/ppa", data)
	})
}
