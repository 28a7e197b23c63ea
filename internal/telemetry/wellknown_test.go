package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// renderMetrics returns the DefaultRegistry's Prometheus exposition.
func renderMetrics(t *testing.T) string {
	t.Helper()
	rec := httptest.NewRecorder()
	DefaultRegistry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

func TestPPAEvalSecondsPerEngine(t *testing.T) {
	h1 := PPAEvalSeconds("engine-a")
	h2 := PPAEvalSeconds("engine-a")
	if h1 != h2 {
		t.Error("same engine returned distinct histograms")
	}
	if PPAEvalSeconds("engine-b") == h1 {
		t.Error("distinct engines share a histogram")
	}
	// The histogram is process-wide and outlives one run of the test: check
	// this run's observation, not a total.
	want := fmt.Sprintf(`unico_ppa_eval_seconds_count{engine="engine-a"} %d`+"\n", h1.Count()+1)
	h1.Observe(0.003)
	out := renderMetrics(t)
	if !strings.Contains(out, want) {
		t.Errorf("histogram missing from exposition:\n%.600s", out)
	}
}

func TestDistRunRequestsLabelCap(t *testing.T) {
	base := DistRunRequests("cap-base")
	if DistRunRequests("cap-base") != base {
		t.Error("same run ID returned distinct counters")
	}
	if DistRunRequests("") != DistRunRequests("unknown") {
		t.Error("empty run ID does not fold to unknown")
	}
	// Flood past the cap: new IDs must fold into "other" instead of growing
	// the label set without bound.
	for i := 0; i < maxRunIDLabels+8; i++ {
		DistRunRequests(fmt.Sprintf("cap-flood-%03d", i)).Inc()
	}
	other := DistRunRequests("cap-flood-overflow-a")
	if other != DistRunRequests("cap-flood-overflow-b") {
		t.Error("post-cap run IDs not folded into one counter")
	}
	distRunRequests.mu.Lock()
	n := len(distRunRequests.byValue)
	distRunRequests.mu.Unlock()
	if n > maxRunIDLabels+1 { // the cap plus the "other" bucket
		t.Errorf("label set grew to %d entries, cap is %d", n, maxRunIDLabels)
	}
}

func TestDebugServerLifecycle(t *testing.T) {
	// The routes are DebugMux's (TestDebugMuxServesMetrics); the server
	// contract is its lifecycle.
	d := NewDebugServer("127.0.0.1:0", DebugMux())
	d.Start(func(err error) { t.Errorf("listener error: %v", err) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	// Close after Shutdown must be safe (double-stop from signal paths).
	if err := d.Close(); err != nil && err != http.ErrServerClosed {
		t.Errorf("Close after Shutdown: %v", err)
	}
}
