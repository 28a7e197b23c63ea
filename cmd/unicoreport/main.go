// Command unicoreport reads a run's artifacts — its flight record (from
// -flight-record) and any span logs (from -span-log, one per process) —
// into a text summary on stdout and, with -o, one HTML page.
// It also gates CI on trace health and checks that two runs recorded the
// same iterations (-diff, flightrec.FirstDifference).
//
//	unicoreport [-o page.html] [-summary s.json] [-run id] [-gate] run.jsonl spans*.jsonl
//	unicoreport -diff base.jsonl cand.jsonl
//
// Each input is classified by its first decodable record. The trace
// analyzed is -run, else the flight record's run ID, else (span logs alone)
// the largest. Exit codes: 0 success; 1 two records that differ, a gate
// violation, or a write failure; 2 unusable input — an unreadable artifact,
// a bad header, zero iteration records, no span events, an unknown -run, or
// bad usage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"unico/internal/disttrace"
	"unico/internal/durable"
	"unico/internal/flightrec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unicoreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "exit 1 unless two runs record the same iterations: unicoreport -diff baseline.jsonl candidate.jsonl")
	out := fs.String("o", "", "write the HTML page to this file")
	summaryOut := fs.String("summary", "", "write the trace's machine-readable JSON summary to this file")
	runID := fs.String("run", "", "trace (run ID) to analyze; defaults to the flight record's run ID, else the largest trace")
	gate := fs.Bool("gate", false, "exit 1 on any orphan span or incomplete eval chain in the trace")
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "unicoreport: "+format+"\n", a...)
		return code
	}

	if *diff {
		if fs.NArg() != 2 {
			return fail(2, "-diff needs exactly two run files (baseline, candidate)")
		}
		a, errA := load(fs.Arg(0), stderr)
		b, errB := load(fs.Arg(1), stderr)
		if err := errors.Join(errA, errB); err != nil {
			return fail(2, "%v", err)
		}
		if d := flightrec.FirstDifference(a, b); d != "" {
			return fail(1, "%s (a) and %s (b) differ: %s", fs.Arg(0), fs.Arg(1), d)
		}
		fmt.Fprintf(stdout, "%s and %s record the same %d iterations\n", fs.Arg(0), fs.Arg(1), len(a.Iters))
		return 0
	}

	var flight *flightrec.RunData
	var title, css string
	var spanPaths, sections []string
	for _, p := range fs.Args() {
		kind, err := classify(p)
		switch {
		case err != nil:
			return fail(2, "%v", err)
		case kind == "":
			fmt.Fprintf(stderr, "unicoreport: %s: no records, skipped\n", p)
		case kind == "spans":
			spanPaths = append(spanPaths, p)
		case kind != flightrec.TypeHeader:
			return fail(2, "%s: neither a flight record nor a span log", p)
		case flight != nil:
			return fail(2, "%s: a second flight record (compare two with -diff)", p)
		default:
			if flight, err = load(p, stderr); err != nil {
				return fail(2, "%v", err)
			}
			fmt.Fprintf(stdout, "run %s: %s\n", flight.Header.RunID, flight.State())
			title, sections = "unico run report — "+filepath.Base(p), []string{flightrec.ReportBody(*flight)}
		}
	}
	if flight == nil && len(spanPaths) == 0 {
		return fail(2, "no flight record or span log in input\nusage: unicoreport [flags] run.jsonl spans*.jsonl | -diff base.jsonl cand.jsonl")
	}

	var a *disttrace.Analysis
	if len(spanPaths) > 0 {
		events, skipped, err := disttrace.LoadFiles(spanPaths...)
		if err != nil {
			return fail(2, "%v", err)
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "unicoreport: skipped %d malformed/duplicate span lines\n", skipped)
		}
		want := *runID
		if want == "" && flight != nil {
			want = flight.Header.RunID
		}
		tr, err := pick(disttrace.BuildTraces(events), want, stderr)
		if err != nil {
			return fail(2, "%v", err)
		}
		a = disttrace.Analyze(tr)
		a.WriteText(stdout)
		if title == "" {
			title = "unico trace " + tr.ID
		}
		css, sections = disttrace.WaterfallCSS, append(sections, disttrace.WaterfallHTML(tr, a))
	} else if *gate || *summaryOut != "" || *runID != "" {
		return fail(2, "-gate, -summary and -run need span logs")
	}

	if *out != "" {
		if err := os.WriteFile(*out, flightrec.Page(title, css, sections...), 0o644); err != nil {
			return fail(1, "write page: %v", err)
		}
	}
	if *summaryOut != "" {
		data, err := json.MarshalIndent(a, "", "  ")
		if err == nil {
			err = os.WriteFile(*summaryOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(1, "write summary: %v", err)
		}
	}
	if !*gate {
		return 0
	}
	code := 0
	if s := a.Summary; s.Orphans > 0 {
		code = fail(1, "GATE: %d orphan spans", s.Orphans)
	}
	if s := a.Summary; s.IncompleteChains > 0 {
		code = fail(1, "GATE: %d ok evals without a complete client→…→engine chain", s.IncompleteChains)
	}
	if code == 0 {
		fmt.Fprintln(stdout, "gate: ok")
	}
	return code
}

// classify names what the input at path holds by its first decodable
// record: flightrec.TypeHeader, "spans", "other", or "" for no record.
func classify(path string) (kind string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	_, err = durable.ReadLines(f, func(line []byte) error {
		var probe struct{ Type, Ev string } // the "type" and "ev" fields
		if json.Unmarshal(line, &probe) != nil {
			return durable.ErrSkip
		}
		switch kind = "other"; {
		case probe.Type == flightrec.TypeHeader:
			kind = flightrec.TypeHeader
		case probe.Ev == "start" || probe.Ev == "end":
			kind = "spans"
		}
		return io.EOF // first record found: stop reading
	})
	if err == io.EOF {
		err = nil
	}
	return kind, err
}

// load reads one flight record; a bad or missing header or zero recorded
// iterations makes it unusable, and skipped torn lines are reported.
func load(path string, stderr io.Writer) (*flightrec.RunData, error) {
	d, skipped, err := flightrec.Load(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "unicoreport: %s: skipped %d malformed line(s)\n", path, skipped)
	}
	if len(d.Iters) == 0 {
		return nil, fmt.Errorf("%s: no iteration records", path)
	}
	return d, nil
}

// pick selects the trace named run, or with no name the largest (a
// co-search run dwarfs any stray health-probe noise), saying so when there
// was a choice.
func pick(traces []*disttrace.Trace, run string, stderr io.Writer) (*disttrace.Trace, error) {
	if len(traces) == 0 {
		return nil, errors.New("no span events in input")
	}
	ids, best := make([]string, len(traces)), traces[0]
	for i, t := range traces {
		if ids[i] = t.ID; t.ID == run {
			return t, nil
		}
		if len(t.Spans) > len(best.Spans) {
			best = t
		}
	}
	if run != "" {
		return nil, fmt.Errorf("run %q not in span logs (have: %s)", run, strings.Join(ids, ", "))
	}
	if len(traces) > 1 {
		fmt.Fprintf(stderr, "unicoreport: %d traces in input, analyzing %s (largest); select with -run\n", len(traces), best.ID)
	}
	return best, nil
}
