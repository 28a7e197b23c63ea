package perfprof

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Capture writes pprof CPU and heap profiles into a directory, stamping
// each filename with the run ID it was built with so profiles from
// successive runs never collide. Only one CPU profile can run at a time
// (a Go runtime restriction); concurrent requests get ErrBusy.
type Capture struct {
	dir, id string

	mu  sync.Mutex
	seq int
	cpu bool
}

// ErrBusy reports that a CPU profile is already being collected.
var ErrBusy = errors.New("perfprof: CPU profile already in progress")

// NewCapture returns a Capture writing into dir, creating it if needed, for
// the process's run runID ("" names the files "norun").
func NewCapture(dir, runID string) (*Capture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("perfprof: create profile dir: %w", err)
	}
	if runID == "" {
		runID = "norun"
	}
	return &Capture{dir: dir, id: runID}, nil
}

// nextPath reserves the next sequence number and builds the profile path:
// <runid|norun>-<kind>-<seq>.pprof
func (c *Capture) nextPath(kind string) string {
	c.mu.Lock()
	c.seq++
	n := c.seq
	c.mu.Unlock()
	return filepath.Join(c.dir, fmt.Sprintf("%s-%s-%03d.pprof", c.id, kind, n))
}

// CPUProfile collects a CPU profile for d and returns the written path.
// The call blocks for the full duration.
func (c *Capture) CPUProfile(d time.Duration) (string, error) {
	c.mu.Lock()
	if c.cpu {
		c.mu.Unlock()
		return "", ErrBusy
	}
	c.cpu = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.cpu = false
		c.mu.Unlock()
	}()

	path := c.nextPath("cpu")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("perfprof: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return "", fmt.Errorf("perfprof: start cpu profile: %w", err)
	}
	time.Sleep(d) //unicolint:allow detclock CPU profiling samples real time by definition
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("perfprof: close cpu profile: %w", err)
	}
	return path, nil
}

// HeapProfile writes a heap profile (after a GC, so the live set is
// current) and returns the written path.
func (c *Capture) HeapProfile() (string, error) {
	path := c.nextPath("heap")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("perfprof: create heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return "", fmt.Errorf("perfprof: write heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("perfprof: close heap profile: %w", err)
	}
	return path, nil
}

// Every captures a heap profile and a short CPU profile each interval
// until ctx is done. Capture errors go to errf (which may be nil); the
// loop keeps running after an error so a transient disk problem does not
// end profiling for the rest of a long run.
func (c *Capture) Every(ctx context.Context, interval time.Duration, errf func(error)) {
	if errf == nil {
		errf = func(error) {}
	}
	cpuDur := interval / 2
	if cpuDur > 10*time.Second {
		cpuDur = 10 * time.Second
	}
	t := time.NewTicker(interval) //unicolint:allow detclock interval profile capture is wall-clock by nature
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := c.HeapProfile(); err != nil {
				errf(err)
			}
			if _, err := c.CPUProfile(cpuDur); err != nil && !errors.Is(err, ErrBusy) {
				errf(err)
			}
		}
	}
}
