// Package cliflags declares, once, the flag groups the binaries under cmd/
// share, and starts what they configure: the logger, the span log, and the
// debug server. It also owns the debug route list every binary serves
// (DebugMux). Only cmd/* imports it — the library takes these
// things as values.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"unico/internal/disttrace"
	"unico/internal/logx"
	"unico/internal/perfprof"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Group selects which flags Register declares.
type Group uint

const (
	Log     Group = 1 << iota // -log-format, -log-level
	SpanLog                   // -span-log
	Metrics                   // -metrics-addr
)

// Shared holds the parsed values of the registered groups and, after Start,
// what they opened.
type Shared struct {
	logFormat, logLevel  string
	spanLog, metricsAddr string

	// Set by Start: the -log-* logger (also the slog default).
	Logger *slog.Logger

	closers []func()
}

// Register declares the flags of groups on fs; parse fs, then call Start.
func Register(fs *flag.FlagSet, groups Group) *Shared {
	s := &Shared{logFormat: "text", logLevel: "info"}
	if groups&Log != 0 {
		fs.StringVar(&s.logFormat, "log-format", s.logFormat, "log output format: text | json")
		fs.StringVar(&s.logLevel, "log-level", s.logLevel, "log level: debug | info | warn | error")
	}
	if groups&SpanLog != 0 {
		fs.StringVar(&s.spanLog, "span-log", "", "record distributed-trace spans as JSONL to this file; analyze with unicoreport")
	}
	if groups&Metrics != 0 {
		fs.StringVar(&s.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/pprof and /debug/unico/phases on this address while running")
	}
	return s
}

// Start validates the parsed flags and starts what they ask for. spanProc
// names this process in its span log ("client", "shard", "router", …). The
// run ID ctx carries, if any (runid.With), stamps every log record.
func (s *Shared) Start(ctx context.Context, spanProc string) error {
	var err error
	if s.Logger, err = logx.Setup(s.logFormat, s.logLevel, runid.From(ctx)); err != nil {
		return err
	}
	if s.spanLog != "" {
		rec, err := disttrace.NewRecorder(s.spanLog, spanProc)
		if err != nil {
			return fmt.Errorf("span log setup: %w", err)
		}
		disttrace.Enable(rec)
		s.closers = append(s.closers, func() {
			// Close returns the first write failure the log latched: the
			// log stopped recording there, and a reader of it must know.
			if err := rec.Close(); err != nil {
				s.Logger.Error("span log failed", slog.Any("err", err))
			}
		})
	}
	if s.metricsAddr != "" {
		debug := telemetry.NewDebugServer(s.metricsAddr, DebugMux())
		debug.Start(func(err error) {
			s.Logger.Error("metrics server failed", slog.Any("err", err))
		})
		s.closers = append(s.closers, func() {
			// The drain deadline must outlive the (by now cancelled) ctx.
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			_ = debug.Shutdown(sctx)
		})
	}
	return nil
}

// DebugMux returns the debug routes every binary serves:
//
//	GET /metrics              Prometheus text (telemetry.DebugMux)
//	GET /debug/pprof/...      runtime profiles (telemetry.DebugMux)
//	GET /debug/unico/phases   the phase tree (text, or JSON with ?format=json)
func DebugMux() *http.ServeMux {
	mux := telemetry.DebugMux()
	mux.Handle("GET /debug/unico/phases", perfprof.PhasesHandler())
	return mux
}

// Close releases what Start opened, newest first.
func (s *Shared) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}
