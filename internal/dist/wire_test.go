package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestExchangeCountsItsBytes: the one exchange counts the request body it
// sends and the response bytes it reads, exactly, once each.
func TestExchangeCountsItsBytes(t *testing.T) {
	const answer = `{"status":"ok","jobs":12345}` + "\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, answer)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	body := []byte(`{"spec":{"platform":"spatial"},"budget":7}`)
	sent, received := bytesSent.Value(), bytesReceived.Value()
	rep, err := c.Exchange(context.Background(), http.MethodPost, "/v1/jobs/advance", body)
	if err != nil || string(rep.Body) != answer {
		t.Fatalf("exchange: %q, %v", rep.Body, err)
	}
	if d := bytesSent.Value() - sent; d != uint64(len(body)) {
		t.Errorf("counted %d bytes sent, want %d", d, len(body))
	}
	if d := bytesReceived.Value() - received; d != uint64(len(answer)) {
		t.Errorf("counted %d bytes received, want %d", d, len(answer))
	}
}

// fuzzBudgetCap keeps the fuzzers on the decoders: an input that decodes to
// a well-formed request asking for more search than this is skipped, not run.
const fuzzBudgetCap = 3

// FuzzAdvanceHandler throws arbitrary bytes at POST /v1/jobs/advance: the
// worker must answer without panicking, never with a 5xx, and hold a job
// afterwards only if it answered 200 for it.
func FuzzAdvanceHandler(f *testing.F) {
	for _, seen := range []int{1, -1, 3} { // a 200, then Seen outside [0, Budget]: 400s
		body, err := json.Marshal(AdvanceRequest{Spec: testSpec(1), Budget: 2, Seen: seen})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
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

// FuzzReleaseHandler throws arbitrary bytes at POST /v1/jobs/release on a
// worker holding two jobs: no panic, never a 5xx, a 200 exactly when the
// body is a release request, and afterwards the worker holds exactly the
// jobs a 200 did not name, having counted the ones it dropped.
func FuzzReleaseHandler(f *testing.F) {
	held := []string{testSpec(1).Key(), testSpec(2).Key()}
	for _, ids := range [][]string{{held[0]}, {held[0], held[1], "k", held[0]}, {}, nil} {
		body, err := json.Marshal(ReleaseRequest{IDs: ids})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"ids":"k"}`))
	f.Add([]byte(`{"ids":[1,null]}`))
	f.Add([]byte(`{"ids":[`))
	f.Add([]byte(`{"ids":[]} {}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer()
		for _, k := range held {
			s.hold(k)
		}
		var req ReleaseRequest
		decodes := json.Unmarshal(data, &req) == nil
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/release", bytes.NewReader(data)))
		if rec.Code >= http.StatusInternalServerError || (rec.Code == http.StatusOK) != decodes {
			t.Fatalf("status %d for %q (a release request: %v)", rec.Code, data, decodes)
		}
		kept := 0
		for _, k := range held {
			if !decodes || !slices.Contains(req.IDs, k) {
				kept++
			}
		}
		if n := s.JobCount(); n != kept {
			t.Fatalf("worker holds %d jobs after %q, want %d", n, data, kept)
		}
		var resp ReleaseResponse
		if decodes && (json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Released != len(held)-kept) {
			t.Fatalf("answered %q for %q, want %d released", rec.Body.Bytes(), data, len(held)-kept)
		}
	})
}
