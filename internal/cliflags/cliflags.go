// Package cliflags declares, once, the flag groups the binaries under cmd/
// share, and starts what they configure: the logger, pprof capture, the span
// log, the debug server with its dashboard, and the evaluation cache with its
// warm-start file. Only cmd/* imports it — the library takes these things as
// values.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"time"

	"unico/internal/disttrace"
	"unico/internal/evalcache"
	"unico/internal/flightrec"
	"unico/internal/logx"
	"unico/internal/perfprof"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Group selects which flags Register declares.
type Group uint

const (
	Log     Group = 1 << iota // -log-format, -log-level
	Pprof                     // -pprof-dir, -pprof-interval
	SpanLog                   // -span-log
	Metrics                   // -metrics-addr
	Cache                     // -cache, -cache-size, -cache-file
)

// Shared holds the parsed values of the registered groups and, after Start,
// what they opened.
type Shared struct {
	// The cache flags as given, for a binary that forwards them instead of
	// calling OpenCache.
	Cache     bool
	CacheSize int
	CacheFile string

	logFormat, logLevel  string
	pprofDir             string
	pprofInterval        time.Duration
	spanLog, metricsAddr string

	// Set by Start: the -log-* logger (also the slog default), the
	// -pprof-dir capture and the store behind the -metrics-addr server's
	// /debug/unico dashboard (each nil without its flag).
	Logger  *slog.Logger
	Capture *perfprof.Capture
	Live    *flightrec.Live

	closers []func()
}

// Register declares the flags of groups on fs; parse fs, then call Start.
func Register(fs *flag.FlagSet, groups Group) *Shared {
	s := &Shared{logFormat: "text", logLevel: "info"}
	if groups&Log != 0 {
		fs.StringVar(&s.logFormat, "log-format", s.logFormat, "log output format: text | json")
		fs.StringVar(&s.logLevel, "log-level", s.logLevel, "log level: debug | info | warn | error")
	}
	if groups&Pprof != 0 {
		fs.StringVar(&s.pprofDir, "pprof-dir", "", "write run-ID-stamped pprof CPU/heap profiles to this directory (enables GET /debug/unico/capture)")
		fs.DurationVar(&s.pprofInterval, "pprof-interval", 0, "capture a heap and CPU profile every interval while running (requires -pprof-dir)")
	}
	if groups&SpanLog != 0 {
		fs.StringVar(&s.spanLog, "span-log", "", "record distributed-trace spans as JSONL to this file; analyze with unicotrace")
	}
	if groups&Metrics != 0 {
		fs.StringVar(&s.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and the /debug/unico dashboard on this address while running")
	}
	if groups&Cache != 0 {
		fs.BoolVar(&s.Cache, "cache", false, "serve repeated PPA evaluations from a content-addressed cache")
		fs.IntVar(&s.CacheSize, "cache-size", 0, "evaluation-cache entry bound (0 = default ~1M; implies -cache)")
		fs.StringVar(&s.CacheFile, "cache-file", "", "warm-start the cache from this JSONL file and save it back on exit (implies -cache)")
	}
	return s
}

// CacheWanted reports whether -cache, or a flag that implies it, is set.
func (s *Shared) CacheWanted() bool {
	return s.Cache || s.CacheSize > 0 || s.CacheFile != ""
}

// Start validates the parsed flags and starts what they ask for. spanProc
// names this process in its span log ("client", "shard", "router", …). The
// run ID ctx carries, if any (runid.With), stamps every log record and
// profile file name. The periodic profile capture of -pprof-interval stops
// when ctx is done.
func (s *Shared) Start(ctx context.Context, spanProc string) error {
	var err error
	if s.Logger, err = logx.Setup(s.logFormat, s.logLevel, runid.From(ctx)); err != nil {
		return err
	}
	if s.pprofInterval > 0 && s.pprofDir == "" {
		return errors.New("-pprof-interval requires -pprof-dir")
	}
	if s.spanLog != "" {
		rec, err := disttrace.NewRecorder(s.spanLog, spanProc)
		if err != nil {
			return fmt.Errorf("span log setup: %w", err)
		}
		disttrace.Enable(rec)
		s.closers = append(s.closers, func() { rec.Close() })
	}
	if s.pprofDir != "" {
		if s.Capture, err = perfprof.NewCapture(s.pprofDir, runid.From(ctx)); err != nil {
			s.Close()
			return fmt.Errorf("pprof capture setup: %w", err)
		}
		if s.pprofInterval > 0 {
			go s.Capture.Every(ctx, s.pprofInterval, func(err error) {
				s.Logger.Warn("interval pprof capture failed", slog.Any("err", err))
			})
		}
	}
	if s.metricsAddr != "" {
		s.Live = flightrec.NewLive()
		debug := telemetry.NewDebugServer(s.metricsAddr, nil)
		debug.Mux().Handle("GET /debug/unico", flightrec.DashboardHandler(s.Live))
		debug.Mux().Handle("GET /debug/unico/phases", perfprof.PhasesHandler())
		if s.Capture != nil {
			debug.Mux().Handle("GET /debug/unico/capture", s.Capture.Handler())
		}
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

// OpenCache builds the evaluation cache the cache flags ask for (nil when
// they ask for none), warm-started from -cache-file when that file exists.
// Close logs its totals and saves it back there.
func (s *Shared) OpenCache() (*evalcache.Cache, error) {
	if !s.CacheWanted() {
		return nil, nil
	}
	cache := evalcache.New(s.CacheSize)
	if s.CacheFile != "" {
		n, err := cache.LoadFile(s.CacheFile)
		if err != nil {
			return nil, fmt.Errorf("cache warm-start: %w", err)
		}
		s.Logger.Info("warm-started cache", slog.Int("entries", n), slog.String("file", s.CacheFile))
	}
	s.closers = append(s.closers, func() {
		st := cache.Stats()
		s.Logger.Info("evaluation cache totals", slog.Uint64("hits", st.Hits), slog.Uint64("misses", st.Misses))
		if s.CacheFile == "" {
			return
		}
		if err := cache.SaveFile(s.CacheFile); err != nil {
			s.Logger.Error("cache save failed", slog.Any("err", err))
			return
		}
		s.Logger.Info("saved cache", slog.Int("entries", cache.Len()), slog.String("file", s.CacheFile))
	})
	return cache, nil
}

// Close releases what Start and OpenCache opened, newest first.
func (s *Shared) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}
