package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInstrumentHandler(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("GET /missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	})
	h := InstrumentHandler(reg, nil, mux)
	srv := httptest.NewServer(h)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := reg.Counter("unico_http_requests_total", "",
		Labels{"route": "/ok", "method": "GET", "code": "2xx"}).Value(); got != 3 {
		t.Errorf("2xx count = %d, want 3", got)
	}
	if got := reg.Counter("unico_http_requests_total", "",
		Labels{"route": "/missing", "method": "GET", "code": "4xx"}).Value(); got != 1 {
		t.Errorf("4xx count = %d, want 1", got)
	}
	if got := reg.Histogram("unico_http_request_seconds", "", nil,
		Labels{"route": "/ok"}).Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
	if got := reg.Gauge("unico_http_inflight", "", nil).Value(); got != 0 {
		t.Errorf("inflight = %v, want 0 at rest", got)
	}
}

// TestDebugMuxServesMetrics reads DefaultRegistry, which is process-wide and
// outlives one run of the test, so it checks its own increment, not a total.
func TestDebugMuxServesMetrics(t *testing.T) {
	c := DefaultRegistry.Counter("unico_debugmux_test_total", "", nil)
	want := fmt.Sprintf("unico_debugmux_test_total %d\n", c.Value()+1)
	c.Inc()
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	for path, want := range map[string]int{
		"/metrics":      http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/debug/vars":   http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing test counter:\n%.400s", body)
	}
}
