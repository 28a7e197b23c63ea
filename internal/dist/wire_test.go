package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOversizedBodyRejected: a worker reads at most MaxBodyBytes of a
// request body, so a client cannot make it buffer an arbitrarily long JSON
// value; what it gets back is a 400 and a worker holding nothing.
func TestOversizedBodyRejected(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	pad := strings.Repeat("a", MaxBodyBytes)
	for path, body := range map[string]string{
		"/v1/ppa":          `{"platform":"` + pad + `"}`,
		"/v1/jobs/advance": `{"budget":1,"spec":{"platform":"spatial","networks":["` + pad + `"]}}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with a %d-byte body answered %d, want 400", path, len(body), rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "request body too large") {
			t.Errorf("%s: body %q does not name the cause", path, rec.Body.String())
		}
	}
	if n := s.JobCount(); n != 0 {
		t.Errorf("oversized requests left %d jobs behind", n)
	}
}

// fuzzBudgetCap keeps the fuzzers on the decoders: an input that decodes to
// a well-formed request asking for more search than this is skipped, not run.
const fuzzBudgetCap = 3

// FuzzAdvanceHandler throws arbitrary bytes at POST /v1/jobs/advance: the
// worker must answer without panicking, never with a 5xx, and hold a job
// afterwards only if it answered 200 for it.
func FuzzAdvanceHandler(f *testing.F) {
	valid, err := json.Marshal(AdvanceRequest{Spec: testSpec(1), Budget: 2, Seen: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"spec":{"platform":"spatial","networks":["MobileNetV3-S"],"x":[0.5]},"budget":1}`))
	f.Add([]byte(`{"spec":{"platform":"ascend","networks":["DLEU"],"x":null,"algo":"depthfirst"},"budget":-1}`))
	f.Add([]byte(`{"spec":{"networks":[]},"budget":1e99}`))
	f.Add([]byte(`{"spec":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req AdvanceRequest
		if json.Unmarshal(data, &req) == nil && req.Budget > fuzzBudgetCap {
			t.Skip("well-formed request for a long search")
		}
		s := NewServer()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/advance", bytes.NewReader(data)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for %q", rec.Code, data)
		}
		held := 0
		if rec.Code == http.StatusOK {
			held = 1
		}
		if n := s.JobCount(); n != held {
			t.Fatalf("status %d left %d jobs on the worker for %q", rec.Code, n, data)
		}
	})
}

// FuzzPPAHandler is the same contract for POST /v1/ppa: any bytes get an
// answer below 500 and no panic.
func FuzzPPAHandler(f *testing.F) {
	valid, err := json.Marshal(spatialPPARequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"platform":"ascend","ascend_hw":{},"ascend_mapping":{},"layer":{}}`))
	f.Add([]byte(`{"platform":"spatial","spatial_hw":{"PEX":0},"spatial_mapping":{"TK":-1},"layer":{"K":0}}`))
	f.Add([]byte(`{"platform":"spatial"}`))
	f.Add([]byte(`[1,2`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		NewServer().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ppa", bytes.NewReader(data)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for %q", rec.Code, data)
		}
	})
}
