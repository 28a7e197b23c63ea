// Command unico runs hardware-software co-optimization from the command
// line.
//
// Usage:
//
//	unico -networks MobileNet,ResNet -scenario edge -method unico \
//	      -batch 30 -iters 10 -bmax 300 -seed 1
//
// The tool prints the feasible Pareto front and the min-Euclidean-distance
// representative design, along with the simulated search cost.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"unico"
	"unico/internal/buildinfo"
	"unico/internal/cliflags"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

func main() {
	var (
		networks      = flag.String("networks", "MobileNet", "comma-separated zoo network names")
		scenario      = flag.String("scenario", "edge", "edge | cloud | ascend")
		method        = flag.String("method", "unico", "unico | hasco | mobohb | nsgaii")
		batch         = flag.Int("batch", 30, "hardware batch size N")
		iters         = flag.Int("iters", 10, "outer iterations")
		bmax          = flag.Int("bmax", 300, "software-mapping budget b_max")
		workers       = flag.Int("workers", 8, "parallel mapping-search workers")
		searchWorkers = flag.Int("search-workers", 8, "parallel acquisition workers inside each suggestion step (results identical at every setting)")
		seed          = flag.Int64("seed", 1, "random seed")
		noR           = flag.Bool("no-robustness", false, "drop the sensitivity objective R")
		list          = flag.Bool("list", false, "list available networks and exit")
		jsonNets      = flag.String("workload-json", "", "comma-separated JSON workload files (overrides -networks)")

		progress     = flag.Bool("progress", false, "print per-iteration convergence to stderr")
		flightRecord = flag.String("flight-record", "", "write the run's flight record (header, per-iteration convergence, summary) as JSONL to this file; view with unicoreport")

		checkpointFile  = flag.String("checkpoint", "", "crash-safe checkpoint file: journal every iteration, snapshot periodically, final state on SIGINT/SIGTERM")
		checkpointEvery = flag.Int("checkpoint-every", 0, "snapshot cadence in iterations (0 = default 10)")
		resume          = flag.Bool("resume", false, "continue from the -checkpoint file if it exists (fresh start otherwise)")

		remoteWorkers  = flag.String("remote-workers", "", "comma-separated ppaserver URLs; run mapping searches remotely (edge/cloud scenarios)")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request timeout against remote workers (0 = 30s default)")
		retries        = flag.Int("retries", 0, "retries for remote requests (exponential backoff with jitter)")
		retryBackoff   = flag.Duration("retry-backoff", 0, "initial delay between remote retries (0 = 50ms default)")
		maxBackoff     = flag.Duration("max-backoff", 0, "cap on the remote retry delay, including server Retry-After hints (0 = 2s default)")
	)
	shared := cliflags.Register(flag.CommandLine,
		cliflags.Log|cliflags.SpanLog|cliflags.Metrics)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run: in-flight work aborts, the current
	// partial batch is discarded, a final checkpoint is written (when
	// -checkpoint is set), and the partial result prints before exit. A
	// second signal kills the process immediately (stop() restores default
	// signal handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One run per invocation: generate the correlation ID up front so every
	// log record — and every dist request and the flight-record header —
	// carries it from the first line.
	ctx = runid.With(ctx, runid.New())
	if err := shared.Start(ctx, "client"); err != nil {
		fmt.Fprintln(os.Stderr, "unico:", err)
		os.Exit(1)
	}
	defer shared.Close()
	logger := shared.Logger
	buildinfo.Publish()

	if *list {
		for _, n := range unico.Networks() {
			fmt.Println(n)
		}
		return
	}

	nets := strings.Split(*networks, ",")
	var p *unico.Platform
	var err error
	if *remoteWorkers != "" {
		urls := strings.Split(*remoteWorkers, ",")
		opts := unico.RemoteOptions{
			RequestTimeout: *requestTimeout,
			MaxRetries:     *retries,
			RetryBackoff:   *retryBackoff,
			MaxBackoff:     *maxBackoff,
		}
		switch *scenario {
		case "edge":
			p, err = unico.RemoteOpenSourcePlatform(unico.Edge, urls, opts, nets...)
		case "cloud":
			p, err = unico.RemoteOpenSourcePlatform(unico.Cloud, urls, opts, nets...)
		default:
			err = fmt.Errorf("-remote-workers supports the edge and cloud scenarios, not %q", *scenario)
		}
	} else if *jsonNets != "" {
		files := strings.Split(*jsonNets, ",")
		switch *scenario {
		case "edge":
			p, err = unico.OpenSourcePlatformFromJSON(unico.Edge, files...)
		case "cloud":
			p, err = unico.OpenSourcePlatformFromJSON(unico.Cloud, files...)
		case "ascend":
			p, err = unico.AscendLikePlatformFromJSON(files...)
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
	} else {
		switch *scenario {
		case "edge":
			p, err = unico.OpenSourcePlatform(unico.Edge, nets...)
		case "cloud":
			p, err = unico.OpenSourcePlatform(unico.Cloud, nets...)
		case "ascend":
			p, err = unico.AscendLikePlatform(nets...)
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
	}
	if err != nil {
		logger.Error("platform setup failed", slog.Any("err", err))
		os.Exit(1)
	}

	var m unico.Method
	switch *method {
	case "unico":
		m = unico.MethodUNICO
	case "hasco":
		m = unico.MethodHASCO
	case "mobohb":
		m = unico.MethodMOBOHB
	case "nsgaii":
		m = unico.MethodNSGAII
	default:
		logger.Error("unknown method", slog.String("method", *method))
		os.Exit(1)
	}

	cfg := unico.Config{
		Method:            m,
		BatchSize:         *batch,
		Iterations:        *iters,
		BudgetMax:         *bmax,
		Workers:           *workers,
		SearchWorkers:     *searchWorkers,
		Seed:              *seed,
		DisableRobustness: *noR,
		CheckpointFile:    *checkpointFile,
		CheckpointEvery:   *checkpointEvery,
		Resume:            *resume,
		FlightRecordFile:  *flightRecord,
	}
	if *progress {
		cfg.Progress = func(p unico.IterationProgress) {
			uul := "inf"
			if !math.IsInf(p.UUL, 0) {
				uul = fmt.Sprintf("%.4f", p.UUL)
			}
			fmt.Fprintf(os.Stderr, "iter %3d  sim %7.2f h  uul %s  front %d  evals %d\n",
				p.Iter, p.SimHours, uul, p.FrontSize, p.Evaluations)
		}
	}

	logger.Info("starting co-search",
		slog.String("method", m.String()), slog.String("networks", *networks),
		slog.String("scenario", *scenario), slog.Int64("seed", *seed))
	res, err := unico.OptimizeContext(ctx, p, cfg)
	if err != nil {
		if res == nil {
			logger.Error("co-search failed", slog.Any("err", err))
			os.Exit(1)
		}
		// The search finished; only a recorder sink (checkpoint or flight
		// record) failed.
		logger.Warn("post-run step failed", slog.Any("err", err))
	}
	if ctx.Err() != nil {
		if *checkpointFile != "" {
			logger.Warn("interrupted; checkpoint written — rerun with -resume to continue",
				slog.String("checkpoint", *checkpointFile))
		} else {
			logger.Warn("interrupted; partial result follows")
		}
	}

	fmt.Printf("method=%s networks=%s scenario=%s\n", m, *networks, *scenario)
	fmt.Printf("simulated search cost: %.2f h (%d budget units)\n", res.SimulatedHours, res.Evaluations)
	if *remoteWorkers != "" {
		// Zero unless a worker failure was truly unrecoverable; chaos CI
		// greps this line to prove no evaluation was silently dropped.
		fmt.Printf("remote evals lost: %d\n", telemetry.DistLostEvals().Value())
	}
	fmt.Printf("Pareto front (%d designs):\n", len(res.Front))
	for _, d := range res.Front {
		fmt.Printf("  %-52s L=%.6g ms  P=%.5g mW  A=%.3g mm²  R=%.3f\n",
			d.HW, d.LatencyMs, d.PowerMW, d.AreaMM2, d.Sensitivity)
	}
	if res.Best.HW != "" {
		fmt.Printf("representative (min-Euclid): %s\n", res.Best.HW)
	} else {
		fmt.Println("no feasible design found — increase -iters or relax constraints")
	}
}
