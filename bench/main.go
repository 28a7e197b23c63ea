// Command bench is the repository's benchmark: six co-search workloads, each
// measured end to end through the unico facade with nothing wrapped, and
// traced layer by layer through wrappers that live only in this directory.
// BENCHMARK.json at the repository root declares it; README.md in this
// directory explains the workloads, the metrics and how to state a claim.
//
//	go run ./bench -workload edge_paper -seed 1 -seconds 25 -trace 0
//
// runs one workload and prints, as the last line, the result object the
// declaration promises. Without -workload it runs every workload (-runs
// seeds each, plus one traced run) and the layer probes in child processes
// of its own and prints one table; -compare holds two such records together.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"unico/internal/buildinfo"
)

// scratchRoot holds the checkpoints and flight records of the durable
// workload and the records children hand to a full run. It sits in the
// working directory, not in the system's temporary directory, so a run
// reads and writes nothing outside its checkout.
const scratchRoot = ".bench_scratch"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	runs     int
	out      string
	traceOut string
	probes   bool
	compare  bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print its result object; empty runs them all")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: the only input to workload generation")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "run length the fixed rep counts are scaled to")
	fs.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: one tiny rep per workload, numbers meaningless")
	fs.IntVar(&o.runs, "runs", 1, "full run: timed runs per workload, at seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "write the run's full record here as JSON")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -workload and -trace 1: write the spans here as JSON lines")
	fs.BoolVar(&o.probes, "probes", false, "run only the layer probes")
	fs.BoolVar(&o.compare, "compare", false, "compare two full-run records: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds < 1 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer func() {
		_ = os.RemoveAll(scratch)
		_ = os.Remove(scratchRoot) // succeeds only when no other run is using it
	}()

	switch {
	case o.probes:
		return runProbes(o, scratch, stdout, stderr)
	case o.workload != "":
		return runWorkload(ctx, o, scratch, stdout, stderr)
	default:
		return runAll(ctx, o, scratch, stdout, stderr)
	}
}

// runWorkload is one run of one workload: the unit BENCHMARK.json's command
// is called for.
func runWorkload(ctx context.Context, o options, scratch string, stdout, stderr io.Writer) int {
	s, ok := specByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.quick {
		s = s.quick()
	}
	r := &runner{spec: s, seed: o.seed, scratch: scratch, quick: o.quick}
	var d detail
	var err error
	if o.trace == 1 {
		d, err = r.runTraced(ctx, o.traceOut)
	} else {
		d, err = r.runTimed(ctx, o.seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, f := range d.Failures {
		fmt.Fprintln(stderr, "bench: FAILED", f)
	}
	for _, n := range d.Notes {
		fmt.Fprintln(stderr, "bench: note: fewer than ten samples beyond the percentile:", n)
	}
	if o.out != "" {
		if err := writeJSON(o.out, d); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printMetrics(stdout, d.Report.Metrics)
	line, err := json.Marshal(d.Report)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !d.Report.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// record is what a full run writes to -out and -compare reads.
type record struct {
	Env    environment       `json:"env"`
	Runs   []detail          `json:"runs"`
	Probes map[string]metric `json:"probes,omitempty"`
}

// environment is where and from what a record was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick,omitempty"`
}

// runAll runs every workload and the probes, each in a child process of its
// own so that peak memory, collector state and the process-wide memo tables
// are per run, then prints the table and writes the record.
func runAll(ctx context.Context, o options, scratch string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec := record{Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: buildinfo.GoVersion(), Revision: buildinfo.Revision(),
		Seconds: o.seconds, Quick: o.quick,
	}}
	child := func(out any, args ...string) error {
		file := filepath.Join(scratch, "child.json")
		args = append(args, "-out", file)
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(file)
		if err != nil {
			return errors.Join(runErr, err)
		}
		_ = os.Remove(file)
		// A child that failed a check still wrote its record; the failure is
		// in it and is counted below.
		return json.Unmarshal(data, out)
	}

	failed := false
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			runs := o.runs
			if trace == 1 {
				runs = 1
			}
			for i := 0; i < runs; i++ {
				fmt.Fprintf(stderr, "bench: %s trace=%d seed=%d\n", s.name, trace, o.seed+int64(i))
				var d detail
				err := child(&d, "-workload", s.name, "-seed", fmt.Sprint(o.seed+int64(i)),
					"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
					return 1
				}
				failed = failed || !d.Report.Correct
				rec.Runs = append(rec.Runs, d)
			}
		}
	}
	fmt.Fprintln(stderr, "bench: probes")
	if err := child(&rec.Probes, "-probes"); err != nil {
		fmt.Fprintln(stderr, "bench: probes:", err)
		return 1
	}

	printRecord(stdout, rec)
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "bench: FAILED: at least one co-search failed a check")
		return 1
	}
	return 0
}

// endToEndValues gathers, per end-to-end metric, a workload's values over the
// timed runs of a record.
func (rec record) endToEndValues(workload string) (vals map[string][]float64, attempted, failedN int) {
	vals = map[string][]float64{}
	for _, d := range rec.Runs {
		if d.Workload != workload || d.Trace {
			continue
		}
		attempted += d.Report.Attempted
		failedN += d.Report.Failed
		for _, m := range endToEndMetrics {
			vals[m.name] = append(vals[m.name], d.Report.Metrics[m.name].Value)
		}
	}
	return vals, attempted, failedN
}

// printRecord prints, per workload, every end-to-end metric (median over the
// runs, quartiles, spread against a third of the bound) and every per-layer
// metric, then the probes.
func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s revision=%s seconds=%d\n",
		rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Revision, rec.Env.Seconds)
	for _, s := range specs {
		vals, attempted, failedN := rec.endToEndValues(s.name)
		note := ""
		if s.local {
			note = ", not in BENCHMARK.json"
		}
		fmt.Fprintf(w, "\n== %s  (co-searches attempted %d, failed %d%s)\n", s.name, attempted, failedN, note)
		for _, m := range endToEndMetrics {
			vs := vals[m.name]
			q1, q3 := quartiles(vs)
			fmt.Fprintf(w, "%-32s %14.6g %-9s n=%d q1=%.6g q3=%.6g spread=%.4f bound=%.2f\n",
				m.name, median(vs), m.unit, len(vs), q1, q3, spread(vs), m.bound)
		}
		for _, d := range rec.Runs {
			if d.Workload == s.name && d.Trace {
				printMetrics(w, d.Report.Metrics)
			}
		}
	}
	if len(rec.Probes) > 0 {
		fmt.Fprintln(w, "\n== probes")
		printMetrics(w, rec.Probes)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
