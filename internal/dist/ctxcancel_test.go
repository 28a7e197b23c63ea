package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// hangingWorker answers nothing until the test ends: the worker accepted
// the connection and then wedged, the exact failure mode context
// cancellation exists to escape.
func hangingWorker(t *testing.T) *httptest.Server {
	t.Helper()
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-done
	}))
	t.Cleanup(func() { close(done); srv.Close() })
	return srv
}

// Regression test for the job release (once deleteJob) building its request
// with http.NewRequest: it ignored cancellation entirely and a wedged worker
// pinned the master for the full transport timeout. ReleaseJobsContext must
// return as soon as its context does.
func TestReleaseJobsContextCancelAbortsWedgedWorker(t *testing.T) {
	srv := hangingWorker(t)
	// A transport without its own timeout isolates what ctx contributes.
	c := NewClient(srv.URL, &http.Client{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.ReleaseJobsContext(ctx, []string{"job-1"})
	if err == nil {
		t.Fatal("ReleaseJobsContext against a wedged worker returned nil")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReleaseJobsContext error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ReleaseJobsContext took %v to honor a 50ms deadline", elapsed)
	}
}

// Regression test for Health using the client's bare Get: a health probe
// against a wedged worker outlived the prober's deadline. HealthContext
// must honor its context.
func TestHealthContextCancelAbortsWedgedWorker(t *testing.T) {
	srv := hangingWorker(t)
	c := NewClient(srv.URL, &http.Client{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.HealthContext(ctx)
	if err == nil {
		t.Fatal("HealthContext against a wedged worker returned nil")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("HealthContext error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("HealthContext took %v to honor a 50ms deadline", elapsed)
	}
}
