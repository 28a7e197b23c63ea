// Command unicobench runs the repo's canonical benchmarks
// (internal/benchmarks) and records the result as a schema-versioned
// BENCH_<rev>.json: ns/op, allocs/op, custom metrics, the run's phase
// breakdown (internal/perfprof), and an environment fingerprint. It also
// diffs two such files with a tolerance gate, seeding the in-repo perf
// trajectory every perf PR is judged against.
//
// Usage:
//
//	unicobench [-pinned] [-run regexp] [-out file] [-benchtime 1s]   # run and record
//	unicobench [-pinned] -list                                       # list bench names
//	unicobench -diff [-tol 0.30] OLD.json NEW.json         # tolerance gate
//
// Exit codes (run mode): 0 success, 1 a benchmark failed.
// Exit codes (diff mode): 0 within tolerance, 1 regression (a benchmark
// slowed past tolerance or disappeared), 2 malformed input.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"unico/internal/benchmarks"
	"unico/internal/buildinfo"
	"unico/internal/durable"
	"unico/internal/perfprof"
)

// Schema identifies the BENCH_*.json format this binary writes and reads.
const Schema = "unico-bench/v1"

// Env is the environment fingerprint of a bench record: enough to tell
// whether two files are comparable at all.
type Env struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Result is one benchmark's recorded outcome.
type Result struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// File is the BENCH_*.json payload.
type File struct {
	Schema     string               `json:"schema"`
	Env        Env                  `json:"env"`
	Benchmarks []Result             `json:"benchmarks"`
	Phases     []perfprof.PhaseStat `json:"phases,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without os.Exit, so tests can drive the full CLI.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("unicobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runRe     = fs.String("run", "", "regexp selecting benchmark names (default: all)")
		pinned    = fs.Bool("pinned", false, "only the pinned kernel-gate subset (benchmarks.Pinned), the set BENCH_baseline.json records")
		out       = fs.String("out", "", "output file (default BENCH_<rev>.json)")
		list      = fs.Bool("list", false, "list canonical benchmark names and exit")
		diff      = fs.Bool("diff", false, "diff mode: compare OLD.json NEW.json with the tolerance gate")
		tol       = fs.Float64("tol", 0.30, "diff tolerance: ns/op may grow by this fraction before failing")
		benchtime = fs.String("benchtime", "", "per-benchmark time or count (e.g. 2s, 10x); empty = testing default")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cases := benchmarks.All(context.Background())
	if *pinned {
		cases = benchmarks.Pinned(context.Background())
	}
	if *list {
		for _, c := range cases {
			fmt.Fprintln(stdout, c.Name)
		}
		return 0
	}

	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "unicobench: -diff needs exactly two files: OLD.json NEW.json")
			return 2
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), *tol, stdout, stderr)
	}

	var re *regexp.Regexp
	if *runRe != "" {
		var err error
		if re, err = regexp.Compile(*runRe); err != nil {
			fmt.Fprintf(stderr, "unicobench: bad -run regexp: %v\n", err)
			return 2
		}
	}
	if *benchtime != "" {
		// testing.Benchmark honors the package-level -test.benchtime flag,
		// which exists outside a test binary only after testing.Init.
		testing.Init()
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintf(stderr, "unicobench: bad -benchtime: %v\n", err)
			return 2
		}
	}

	f, failed := runBenches(cases, re, stdout)
	if failed {
		return 1
	}
	path := *out
	if path == "" {
		path = "BENCH_" + f.Env.Revision + ".json"
	}
	if err := writeFile(path, f); err != nil {
		fmt.Fprintf(stderr, "unicobench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d benchmarks, %d phases)\n", path, len(f.Benchmarks), len(f.Phases))
	return 0
}

// runBenches executes the cases whose names match re (all of them when re is
// nil) under a fresh profiler and collects results plus the aggregated
// phase report.
func runBenches(cases []benchmarks.Case, re *regexp.Regexp, stdout *os.File) (File, bool) {
	prof := perfprof.New()
	restore := perfprof.SetActive(prof)
	defer restore()

	f := File{
		Schema: Schema,
		Env: Env{
			GoVersion: buildinfo.GoVersion(),
			Revision:  buildinfo.Revision(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
	}
	failed := false
	for _, c := range cases {
		if re != nil && !re.MatchString(c.Name) {
			continue
		}
		r := testing.Benchmark(c.Fn)
		if r.N == 0 {
			// testing.Benchmark returns a zero result when the bench
			// fails (b.Fatal) — surface it instead of recording garbage.
			fmt.Fprintf(stdout, "FAIL  %s\n", c.Name)
			failed = true
			continue
		}
		res := Result{
			Name:        c.Name,
			Runs:        r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = map[string]float64{}
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				res.Extra[k] = r.Extra[k]
			}
		}
		f.Benchmarks = append(f.Benchmarks, res)
		fmt.Fprintf(stdout, "ok    %-40s %12.0f ns/op %10d B/op %8d allocs/op\n", c.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	f.Phases = prof.Report()
	return f, failed
}

// writeFile persists the record atomically (durable.WriteFile), honoring
// the repo's durability rule for artifacts a CI gate depends on: a crash
// mid-write must not leave a truncated record for -diff to choke on.
func writeFile(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(durable.OS{}, path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// loadFile reads and validates a BENCH_*.json; any failure is "malformed
// input" (exit 2 in diff mode).
func loadFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	if len(f.Benchmarks) == 0 {
		return f, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return f, nil
}

// diffFiles gates NEW.json against OLD.json: every benchmark present in
// both must not slow down by more than tol (fractional), and no old
// benchmark may disappear. Exit 0 ok, 1 regression, 2 malformed.
func diffFiles(oldPath, newPath string, tol float64, stdout, stderr *os.File) int {
	oldF, err := loadFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "unicobench: %v\n", err)
		return 2
	}
	newF, err := loadFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "unicobench: %v\n", err)
		return 2
	}
	byName := map[string]Result{}
	for _, r := range newF.Benchmarks {
		byName[r.Name] = r
	}
	regressed := 0
	compared := 0
	for _, old := range oldF.Benchmarks {
		cur, ok := byName[old.Name]
		if !ok {
			fmt.Fprintf(stdout, "MISSING  %-40s (in %s, absent from %s)\n", old.Name, oldPath, newPath)
			regressed++
			continue
		}
		compared++
		ratio := 0.0
		if old.NsPerOp > 0 {
			ratio = cur.NsPerOp / old.NsPerOp
		}
		verdict := "ok"
		if ratio > 1+tol {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Fprintf(stdout, "%-9s %-40s %12.0f -> %12.0f ns/op  (%.2fx, tol %.2fx)\n",
			verdict, old.Name, old.NsPerOp, cur.NsPerOp, ratio, 1+tol)
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "unicobench: %s and %s share no benchmarks\n", oldPath, newPath)
		return 2
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regression(s) past the %.0f%% tolerance\n", regressed, tol*100)
		return 1
	}
	fmt.Fprintf(stdout, "all %d benchmarks within tolerance\n", compared)
	return 0
}
