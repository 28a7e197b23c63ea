// Command ppaserver runs a worker node of the distributed deployment
// (paper Fig. 6): a standalone REST service exposing PPA estimation and
// hosting resumable software-mapping search jobs.
//
// Usage:
//
//	ppaserver -addr :8080
//
// With -shards it instead runs as a fleet router (internal/fleet): the
// same API surface, but every request is consistent-hashed onto one of the
// named ppaserver shards with per-shard admission control, load shedding
// (429/503 + Retry-After) and health-checked membership. The router keeps
// no job state: when a shard dies mid-search the next one along the ring
// answers the same advance by rebuilding the job from the spec it carries:
//
//	ppaserver -addr :8080 -shards http://h1:9301,http://h2:9301,http://h3:9301
//
// Endpoints:
//
//	POST   /v1/ppa           evaluate one (hardware, mapping, layer) triple
//	POST   /v1/jobs/advance  bring the job a spec describes to a cumulative budget
//	POST   /v1/jobs/release  drop the jobs {"ids":[…]} names (ids: JobSpec keys)
//	GET    /v1/healthz       liveness probe ("ok" or "draining")
//	POST   /v1/drain         stop accepting new work, finish in-flight jobs
//	POST   /v1/undrain       resume accepting new work
//	GET    /metrics          Prometheus text-format metrics
//	GET    /debug/pprof/     runtime profiles
//	GET    /debug/unico/phases   phase-attribution breakdown (text or ?format=json)
//
// With -span-log every request hop is additionally recorded as distributed-
// trace spans (shard, engine and replay spans here; queue/forward spans in
// router mode) to a JSONL file, one per process; unicoreport reads them
// all at once.
//
// Router mode adds:
//
//	GET    /v1/fleet/members            per-shard state, queue depth, jobs
//	POST   /v1/fleet/drain?shard=<id>   drain one shard (re-hash new work away)
//	POST   /v1/fleet/undrain?shard=<id> return a drained shard to service
//
// A router's /metrics is its own; each shard serves its own /metrics.
//
// Every request is access-logged with the originating client's run ID (the
// X-Unico-Run-ID header internal/dist clients attach), so a worker log line
// is attributable to the exact co-search run that issued it. The server
// drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unico/internal/buildinfo"
	"unico/internal/cliflags"
	"unico/internal/dist"
	"unico/internal/fleet"
	"unico/internal/logx"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second,
		"how long to drain in-flight requests on SIGINT/SIGTERM")
	shards := flag.String("shards", "",
		"comma-separated shard base URLs; when set, run as a fleet router over these ppaserver shards instead of evaluating locally")
	shardCapacity := flag.Int("shard-capacity", fleet.DefaultShardCapacity,
		"router: concurrent requests forwarded to one shard before queueing")
	shardQueue := flag.Int("shard-queue", fleet.DefaultShardQueue,
		"router: queued requests per shard beyond -shard-capacity before shedding with 429")
	retryAfter := flag.Duration("retry-after", fleet.DefaultRetryAfter,
		"router: backoff advertised in Retry-After on shed responses")
	failAfter := flag.Int("fail-after", fleet.DefaultFailAfter,
		"router: consecutive failures before a shard is marked down and its keys re-hashed")
	probeInterval := flag.Duration("probe-interval", fleet.DefaultProbeInterval,
		"router: health-probe cadence")
	probeTimeout := flag.Duration("probe-timeout", fleet.DefaultProbeTimeout,
		"router: health-probe timeout")
	forwardTimeout := flag.Duration("forward-timeout", fleet.DefaultForwardTimeout,
		"router: per-forwarded-request timeout; must exceed the longest budget installment")
	virtualNodes := flag.Int("virtual-nodes", fleet.DefaultVirtualNodes,
		"router: hash-ring virtual nodes per shard")
	shared := cliflags.Register(flag.CommandLine,
		cliflags.Log|cliflags.SpanLog)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	spanProc := "shard"
	if *shards != "" {
		spanProc = "router"
	}
	if err := shared.Start(ctx, spanProc); err != nil {
		fmt.Fprintln(os.Stderr, "ppaserver:", err)
		os.Exit(1)
	}
	logger := shared.Logger
	buildinfo.Publish()

	var (
		handler http.Handler
		router  *fleet.Router
		err     error
	)
	if *shards != "" {
		var list []string
		for _, s := range strings.Split(*shards, ",") {
			if s = strings.TrimSpace(s); s != "" {
				list = append(list, strings.TrimRight(s, "/"))
			}
		}
		router, err = fleet.NewRouter(list, fleet.Options{
			ShardCapacity:  *shardCapacity,
			ShardQueue:     *shardQueue,
			RetryAfter:     *retryAfter,
			FailAfter:      *failAfter,
			ProbeInterval:  *probeInterval,
			ProbeTimeout:   *probeTimeout,
			ForwardTimeout: *forwardTimeout,
			VirtualNodes:   *virtualNodes,
		})
		if err != nil {
			logger.Error("router setup failed", slog.Any("err", err))
			os.Exit(1)
		}
		logger.Info("fleet router mode", slog.Int("shards", len(list)))
		handler = router.Handler()
	} else {
		handler = dist.NewServer().Handler()
	}

	mux := http.NewServeMux()
	mux.Handle("/", logx.AccessLog(logger, handler))
	debug := cliflags.DebugMux()
	mux.Handle("GET /metrics", debug)
	mux.Handle("GET /debug/", debug)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if router != nil {
		router.Start(ctx)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", slog.String("addr", *addr))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("server failed", slog.Any("err", err))
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("shutdown signal received, draining", slog.Duration("grace", *shutdownGrace))
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("forced shutdown", slog.Any("err", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listener error", slog.Any("err", err))
		}
		shared.Close() // closes the span log
		logger.Info("stopped")
	}
}
