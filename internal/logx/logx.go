// Package logx is the shared slog setup of the unico binaries: one Setup
// call turns the -log-format/-log-level flag pair into a configured
// *slog.Logger (installed as the process default) whose every record carries
// the run ID of the process's run, if it has one (internal/runid), so a log
// line of a client or an experiment sweep is attributable to its run.
// It also provides the HTTP access-log middleware ppaserver wraps its
// handler with, which logs each request with the caller's run ID taken from
// the X-Unico-Run-ID header.
package logx

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"unico/internal/runid"
)

// ParseLevel converts a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("logx: unknown log level %q (debug|info|warn|error)", s)
}

// Setup builds the logger the -log-format ("text" or "json") and -log-level
// flags describe, writing to stderr, and installs it as both the slog and
// the stdlib log default so third-party log.Printf calls flow through it.
// A non-empty runID is the process's run: every record carries it as run_id.
func Setup(format, level, runID string) (*slog.Logger, error) {
	logger, err := newLogger(os.Stderr, format, level, runID)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	return logger, nil
}

func newLogger(w io.Writer, format, level, runID string) (*slog.Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("logx: unknown log format %q (text|json)", format)
	}
	logger := slog.New(h)
	if runID != "" {
		logger = logger.With("run_id", runID)
	}
	return logger, nil
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// AccessLog wraps an HTTP handler with per-request logging: method, path,
// status, duration, and the originating client's run ID from the
// X-Unico-Run-ID header — the correlation that makes a ppaserver request
// attributable to the exact co-search run that issued it.
func AccessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //unicolint:allow detclock request latency for the access log is wall time by definition
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start)), //unicolint:allow detclock request latency for the access log is wall time by definition
			slog.String("remote", r.RemoteAddr),
		}
		if id := r.Header.Get(runid.Header); id != "" {
			attrs = append(attrs, slog.String("client_run_id", id))
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}
