// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all            # every experiment
//	experiments -run table1         # Table 1 (edge device)
//	experiments -run table2         # Table 2 (cloud device)
//	experiments -run fig7           # hypervolume-vs-cost curves
//	experiments -run fig8           # robustness-indicator study
//	experiments -run fig9           # generalization to unseen DNNs
//	experiments -run fig10          # ablation
//	experiments -run fig11          # Ascend-like case study
//	experiments -scale paper|small  # experiment sizes (default small)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"unico/internal/buildinfo"
	"unico/internal/cliflags"
	"unico/internal/core"
	"unico/internal/experiments"
	"unico/internal/hw"
	"unico/internal/runid"
)

func main() {
	run := flag.String("run", "all", "experiment id: all,table1,table2,fig7,fig8,fig9,fig10,fig11")
	scale := flag.String("scale", "small", "paper | small")
	seed := flag.Int64("seed", 0, "override the scale's seed (0 keeps default)")
	searchWorkers := flag.Int("search-workers", 0, "parallel acquisition workers inside each suggestion step (0 keeps the engine default; results identical at every setting)")
	progress := flag.Bool("progress", false, "print per-iteration convergence of every run to stderr")
	checkpointDir := flag.String("checkpoint-dir", "", "write per-run crash-safe checkpoints into this directory")
	resume := flag.Bool("resume", false, "continue runs from existing checkpoints in -checkpoint-dir")
	flightDir := flag.String("flight-record", "", "write one flight-record artifact per co-search run (<run>.run.jsonl) into this directory; view with unicoreport")
	shared := cliflags.Register(flag.CommandLine,
		cliflags.Log|cliflags.SpanLog|cliflags.Metrics)
	flag.Parse()

	// SIGINT/SIGTERM cancel in-flight co-searches; with -checkpoint-dir set,
	// each interrupted run leaves a resumable checkpoint behind.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// One sweep = one correlation ID across all its runs, log records and
	// dist requests.
	ctx = runid.With(ctx, runid.New())
	if err := shared.Start(ctx, "client"); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer shared.Close()
	logger := shared.Logger
	buildinfo.Publish()

	var s experiments.Scale
	switch *scale {
	case "paper":
		s = experiments.PaperScale()
	case "small":
		s = experiments.SmallScale()
	default:
		logger.Error("unknown scale", slog.String("scale", *scale))
		os.Exit(1)
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	s.SearchWorkers = *searchWorkers
	s.Context = ctx
	s.Resume = *resume
	if *progress {
		s.Progress = func(p core.Progress) {
			fmt.Fprintf(os.Stderr, "iter %3d  sim %7.2f h  front %d  evals %d\n",
				p.Iter, p.SimHours, p.FrontSize, p.Evals)
		}
	}
	for _, dir := range []string{*checkpointDir, *flightDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			logger.Error("artifact dir setup failed", slog.Any("err", err))
			os.Exit(1)
		}
	}
	s.CheckpointDir, s.FlightDir = *checkpointDir, *flightDir

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := false

	if all || want["table1"] {
		experiments.RunEdgeCloudTable(os.Stdout, hw.Edge, s)
		ran = true
	}
	if all || want["table2"] {
		experiments.RunEdgeCloudTable(os.Stdout, hw.Cloud, s)
		ran = true
	}
	if all || want["fig7"] {
		experiments.RunHypervolumeCurves(os.Stdout, hw.Edge, s)
		experiments.RunHypervolumeCurves(os.Stdout, hw.Cloud, s)
		ran = true
	}
	if all || want["fig8"] {
		experiments.RunRobustnessIndicator(os.Stdout, s)
		ran = true
	}
	if all || want["fig9"] {
		experiments.RunGeneralization(os.Stdout, s)
		ran = true
	}
	if all || want["fig10"] {
		experiments.RunAblation(os.Stdout, s)
		ran = true
	}
	if all || want["fig11"] {
		experiments.RunAscend(os.Stdout, s)
		ran = true
	}
	if !ran {
		logger.Error("nothing matched", slog.String("run", *run))
		os.Exit(1)
	}
}
