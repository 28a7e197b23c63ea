package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// verdict is the outcome of holding one (workload, end-to-end metric) pair of
// two records together.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of a parent record (a) and a change (b) on one
// metric. The change is worse when its median is worse than the parent's by
// more than the bound, as a share of the parent's median. When either side's
// spread is wider than the bound and the two interquartile ranges overlap,
// the runs cannot tell the two apart and the pair is unresolved instead.
func judge(m endToEnd, a, b []float64) (v verdict, ratio float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	ratio = mb / ma
	worseBy := ratio - 1
	if m.higher {
		worseBy = 1 - ratio
	}
	aq1, aq3 := quartiles(a)
	bq1, bq3 := quartiles(b)
	wide := max(spread(a), spread(b)) > m.bound
	overlap := aq1 <= bq3 && bq1 <= aq3
	switch {
	case wide && overlap:
		return verdictUnresolved, ratio
	case worseBy > m.bound:
		return verdictWorse, ratio
	default:
		return verdictOK, ratio
	}
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// digests maps "workload/seed" to the result digests of that timed run.
func (rec record) digests() map[string][]string {
	out := map[string][]string{}
	for _, d := range rec.Runs {
		if !d.Trace {
			out[fmt.Sprintf("%s/%d", d.Workload, d.Seed)] = d.Digests
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// full-run records — both medians, the ratio with the first record as its
// base, the bound and the verdict — and says per workload whether the
// co-search results themselves are identical. It returns 1 when any pair is
// worse or any co-search failed, 2 when a record cannot be read.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareRecords(a, b, stdout)
}

func compareRecords(a, b record, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-22s %-18s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	da, db := a.digests(), b.digests()
	for _, s := range specs {
		va, _, failedA := a.endToEndValues(s.name)
		vb, _, failedB := b.endToEndValues(s.name)
		for _, m := range endToEndMetrics {
			v, ratio := judge(m, va[m.name], vb[m.name])
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-22s %-18s %12.6g %12.6g %8.4f %6.2f  %s (n=%d,%d)\n",
				s.name, m.name, median(va[m.name]), median(vb[m.name]), ratio, m.bound, v,
				len(va[m.name]), len(vb[m.name]))
		}
		same, shared := true, 0
		for key, dig := range da {
			if other, ok := db[key]; ok && strings.HasPrefix(key, s.name+"/") {
				shared++
				same = same && slices.Equal(dig, other)
			}
		}
		results := "no seed in common"
		if shared > 0 {
			results = fmt.Sprintf("identical on %d shared seeds", shared)
			if !same {
				results = "DIFFER"
			}
		}
		fmt.Fprintf(stdout, "%-22s results %s; failed co-searches A=%d B=%d\n", s.name, results, failedA, failedB)
		if failedA+failedB > 0 {
			code = 1
		}
	}
	return code
}
