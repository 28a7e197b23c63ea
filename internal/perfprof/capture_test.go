package perfprof

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// isGzip reports whether the file starts with the gzip magic bytes; pprof
// profiles are gzipped protobufs, so this is a cheap validity check.
func isGzip(t *testing.T, path string) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read profile: %v", err)
	}
	return len(b) > 2 && b[0] == 0x1f && b[1] == 0x8b
}

func TestCaptureWritesReadableProfiles(t *testing.T) {
	c, err := NewCapture(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	heap, err := c.HeapProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !isGzip(t, heap) {
		t.Errorf("heap profile %s is not a gzipped pprof file", heap)
	}
	cpu, err := c.CPUProfile(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !isGzip(t, cpu) {
		t.Errorf("cpu profile %s is not a gzipped pprof file", cpu)
	}
}

func TestCaptureFilenamesCarryRunID(t *testing.T) {
	c, err := NewCapture(t.TempDir(), "feedc0defeedc0de")
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.HeapProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "feedc0defeedc0de-heap-") {
		t.Errorf("profile path %q missing run-ID stamp", path)
	}
}

func TestCaptureHandler(t *testing.T) {
	c, err := NewCapture(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()

	// heap capture returns the written path
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/capture?profile=heap", nil))
	if rec.Code != 200 {
		t.Fatalf("heap capture status = %d, body %q", rec.Code, rec.Body.String())
	}
	path := strings.TrimSpace(rec.Body.String())
	if !isGzip(t, path) {
		t.Errorf("handler-written profile %s not gzipped", path)
	}

	// bad profile kind
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/capture?profile=goroutine", nil))
	if rec.Code != 400 {
		t.Errorf("bad kind status = %d, want 400", rec.Code)
	}

	// bad seconds
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/capture?profile=cpu&seconds=zero", nil))
	if rec.Code != 400 {
		t.Errorf("bad seconds status = %d, want 400", rec.Code)
	}
}

func TestCPUProfileBusy(t *testing.T) {
	c, err := NewCapture(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.CPUProfile(300 * time.Millisecond)
		done <- err
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let StartCPUProfile take hold
	if _, err := c.CPUProfile(10 * time.Millisecond); err != ErrBusy {
		t.Errorf("concurrent CPU profile err = %v, want ErrBusy", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first CPU profile failed: %v", err)
	}
}

func TestEveryCapturesUntilCancelled(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCapture(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() {
		c.Every(ctx, 50*time.Millisecond, nil)
		close(finished)
	}()
	deadline := time.After(5 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("interval capture produced %d files, want >= 2", len(ents))
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Every did not stop after cancel")
	}
}

func TestPhasesHandler(t *testing.T) {
	p := New()
	restore := SetActive(p)
	defer restore()
	p.Begin("gp.fit").End()

	rec := httptest.NewRecorder()
	PhasesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/phases", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "gp.fit") {
		t.Errorf("text phases: status %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	PhasesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/phases?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json phases content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"path":"gp.fit"`) {
		t.Errorf("json phases body %q missing gp.fit", rec.Body.String())
	}
}
