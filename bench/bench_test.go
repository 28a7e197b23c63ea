package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	vs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vs[0] != 10 || vs[4] != 50 {
		t.Error("percentile reordered its input")
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileResolved(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := percentileResolved(c.n, c.p); got != c.want {
			t.Errorf("percentileResolved(%d, %v) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which is
// what the acceptance procedure computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// Children running on two goroutines overlap; the parent's self time takes
// off their union, not their sum, and ignores what sticks out of the parent.
func TestSelfTimeTakesTheUnionOfChildren(t *testing.T) {
	parent := interval{10, 20}
	children := []interval{{11, 14}, {13, 16}, {18, 19}, {19.5, 25}, {2, 3}}
	// Covered: [11,16] ∪ [18,19] ∪ [19.5,20] = 5 + 1 + 0.5.
	if got := selfTime(parent, children); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("self time = %v, want 3.5", got)
	}
	if got := unionLength([]interval{{0, 1}, {0, 1}, {0.5, 1}}); got != 1 {
		t.Errorf("union of coinciding intervals = %v, want 1", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("childless self time = %v, want 10", got)
	}
}

func TestDigestIsStableAndSeesOneBit(t *testing.T) {
	mk := func() outcome {
		return outcome{
			front: []design{{x: []float64{0.25, 0.5}, latency: 10, power: 200, area: 3, sensitivity: 0.1},
				{x: []float64{0.75, 0.125}, latency: 20, power: 100, area: 2, sensitivity: 0.2}},
			evals: 4800, hours: 700.0083333333333,
		}
	}
	base := mk().digest()
	if got := mk().digest(); got != base {
		t.Fatalf("digest of equal outcomes differs: %s vs %s", got, base)
	}
	oneUlp := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
	mutations := map[string]func(*outcome){
		"x":           func(o *outcome) { o.front[1].x[0] = oneUlp(o.front[1].x[0]) },
		"latency":     func(o *outcome) { o.front[0].latency = oneUlp(o.front[0].latency) },
		"sensitivity": func(o *outcome) { o.front[1].sensitivity = oneUlp(o.front[1].sensitivity) },
		"evals":       func(o *outcome) { o.evals++ },
		"hours":       func(o *outcome) { o.hours = oneUlp(o.hours) },
		"order":       func(o *outcome) { o.front[0], o.front[1] = o.front[1], o.front[0] },
	}
	for name, mutate := range mutations {
		o := mk()
		mutate(&o)
		if o.digest() == base {
			t.Errorf("digest blind to a change of %s", name)
		}
	}
}

// Three points in the box [0,10]³, by inclusion-exclusion:
// A=(2,6,5) → 8·4·5 = 160, B=(5,3,5) → 5·7·5 = 175, C=(8,8,1) → 2·2·9 = 36;
// A∩B = 5·4·5 = 100, A∩C = 2·2·5 = 20, B∩C = 2·2·5 = 20, A∩B∩C = 20;
// union = 371 − 140 + 20 = 251, of a box of 1000.
func TestHypervolumeAgainstHandComputedFront(t *testing.T) {
	o := outcome{front: []design{
		{latency: 2, power: 6, area: 5},
		{latency: 5, power: 3, area: 5},
		{latency: 8, power: 8, area: 1},
		{latency: 12, power: 1, area: 1}, // beyond the reference: counts for nothing
	}}
	if got := hypervolume(o, [3]float64{10, 10, 10}); math.Abs(got-0.251) > 1e-12 {
		t.Errorf("normalised hypervolume = %v, want 0.251", got)
	}
	if got := hypervolume(outcome{}, [3]float64{10, 10, 10}); got != 0 {
		t.Errorf("empty front has hypervolume %v, want 0", got)
	}
}

func TestCheckOutcomeCatchesBadFronts(t *testing.T) {
	s, _ := specByName("ascend_dleu")
	good := outcome{front: []design{{latency: 1, power: 5, area: 100}, {latency: 2, power: 4, area: 100}},
		evals: s.evals, hours: s.simHours}
	if problems := checkOutcome(s, good); len(problems) != 0 {
		t.Fatalf("a sound front was refused: %v", problems)
	}
	for name, bad := range map[string]outcome{
		"empty":     {evals: s.evals, hours: s.simHours},
		"dominated": {front: []design{{latency: 1, power: 1, area: 1}, {latency: 2, power: 2, area: 2}}, evals: s.evals, hours: s.simHours},
		"over cap":  {front: []design{{latency: 1, power: 1, area: 201}}, evals: s.evals, hours: s.simHours},
		"evals":     {front: good.front, evals: s.evals + 1, hours: s.simHours},
		"hours":     {front: good.front, evals: s.evals, hours: s.simHours * 1.001},
	} {
		if problems := checkOutcome(s, bad); len(problems) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSearchSeedsAreDistinctAndNonZero(t *testing.T) {
	seen := map[int64]bool{}
	for run := int64(-2); run < 40; run++ {
		for rep := -1; rep < 40; rep++ {
			s := searchSeed(run, rep)
			if s <= 0 || seen[s] {
				t.Fatalf("searchSeed(%d, %d) = %d: not positive or repeated", run, rep, s)
			}
			seen[s] = true
		}
	}
}

func TestRepsScaleWithSeconds(t *testing.T) {
	s, _ := specByName("cloud_mapping")
	if got := s.repsFor(runSeconds); got != s.reps {
		t.Errorf("reps at the declared run length = %d, want %d", got, s.reps)
	}
	if got := s.repsFor(2 * runSeconds); got != 2*s.reps {
		t.Errorf("reps at twice the run length = %d, want %d", got, 2*s.reps)
	}
	if got := s.repsFor(1); got != 3 {
		t.Errorf("reps at one second = %d, want the floor of 3", got)
	}
}

// fakeRecord builds a full-run record with the given cosearch_wall_s values
// on edge_paper and steady values everywhere else.
func fakeRecord(walls []float64) record {
	var rec record
	for _, s := range specs {
		for i := range walls {
			m := map[string]metric{}
			for _, e := range endToEndMetrics {
				m[e.name] = metric{1, e.unit}
			}
			if s.name == "edge_paper" {
				m["cosearch_wall_s"] = metric{walls[i], "s"}
			}
			rec.Runs = append(rec.Runs, detail{Workload: s.name, Seed: int64(i + 1),
				Report: report{Correct: true, Attempted: 1, Metrics: m}, Digests: []string{"d"}})
		}
	}
	return rec
}

func TestCompareVerdicts(t *testing.T) {
	wall := endToEndMetrics[1]
	if wall.name != "cosearch_wall_s" {
		t.Fatalf("endToEndMetrics[1] is %s", wall.name)
	}
	steady := []float64{2.00, 2.01, 1.99, 2.02, 1.98}
	for _, c := range []struct {
		name string
		b    []float64
		want verdict
		code int
	}{
		{"same", steady, verdictOK, 0},
		{"faster", []float64{1.5, 1.51, 1.49, 1.52, 1.48}, verdictOK, 0},
		{"within the bound", []float64{2.2, 2.21, 2.19, 2.22, 2.18}, verdictOK, 0},
		{"beyond the bound", []float64{2.6, 2.61, 2.59, 2.62, 2.58}, verdictWorse, 1},
		{"beyond the bound but too noisy to tell", []float64{1.7, 2.6, 3.9, 2.1, 3.2}, verdictUnresolved, 0},
	} {
		if got, _ := judge(wall, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
		var out bytes.Buffer
		if code := compareRecords(fakeRecord(steady), fakeRecord(c.b), &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+len(specs)*(len(endToEndMetrics)+1) {
			t.Errorf("%s: %d rows printed", c.name, rows)
		}
	}
	// Higher is better for the hypervolume: a drop beyond its bound is worse.
	hv := endToEndMetrics[len(endToEndMetrics)-1]
	if got, _ := judge(hv, []float64{0.9, 0.9, 0.9}, []float64{0.8, 0.8, 0.8}); got != verdictWorse {
		t.Errorf("hypervolume drop judged %s, want worse", got)
	}
	if got, _ := judge(hv, []float64{0.9, 0.9, 0.9}, []float64{0.95, 0.95, 0.95}); got != verdictOK {
		t.Errorf("hypervolume gain judged %s, want ok", got)
	}
}

// declaration is BENCHMARK.json as far as this package has to agree with it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and the tables of this package declare the same workloads
// and metrics, name by name and unit by unit.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclaration(t)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, runSeconds = %d", d.RunSeconds, runSeconds)
	}
	var declared []spec
	for _, sp := range specs {
		if !sp.local {
			declared = append(declared, sp)
		}
	}
	if len(d.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, %d specs that are not local", len(d.Workloads), len(declared))
	}
	for i, w := range d.Workloads {
		if w.Name != declared[i].name {
			t.Errorf("workload %d is %q, spec is %q", i, w.Name, declared[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(d.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d in the table", len(d.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range d.EndToEnd {
		e := endToEndMetrics[i]
		better := map[bool]string{true: "higher", false: "lower"}[e.higher]
		if m.Name != e.name || m.Unit != e.unit || m.Better != better || m.Bound != e.bound {
			t.Errorf("end-to-end %d: declared %+v, table %+v", i, m, e)
		}
	}
	if len(d.PerLayer) != len(layerMetricTable)+1 {
		t.Fatalf("%d per-layer metrics declared, %d in the table", len(d.PerLayer), len(layerMetricTable)+1)
	}
	units := map[string]string{traceOverhead: "fraction"}
	for _, lm := range layerMetricTable {
		units[lm.name] = lm.unit
	}
	for _, m := range d.PerLayer {
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s [%s]: table has unit %q (present %t)", m.Name, m.Unit, unit, ok)
		}
		delete(units, m.Name)
	}
	for name := range units {
		t.Errorf("per-layer %s is in the table but not declared", name)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// The smoke: every workload at one tiny rep, timed and traced, emits exactly
// the declared metrics, each once, finite, under a well-formed name — and
// every check passes.
func TestQuickSmoke(t *testing.T) {
	d := readDeclaration(t)
	declared := map[int][]string{}
	for _, m := range d.EndToEnd {
		declared[0] = append(declared[0], m.Name)
	}
	for _, m := range d.PerLayer {
		declared[1] = append(declared[1], m.Name)
	}
	// Runs keep their scratch under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", s.name, "-quick", "-seed", "3", "-trace", strconv.Itoa(trace), "-trace-out", "spans.jsonl"}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", s.name, trace, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", s.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", s.name, trace, len(r.Metrics), len(declared[trace]))
			}
			for _, name := range declared[trace] {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", s.name, trace, name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", s.name, trace, name, m.Value)
				case !metricName.MatchString(name):
					t.Errorf("metric name %q is malformed", name)
				case trace == 0 && m.Value == 0:
					t.Errorf("%s: end-to-end %s reads zero", s.name, name)
				}
			}
		}
		spans, err := os.ReadFile("spans.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(spans), `"name":"cosearch"`); n != tracedReps {
			t.Errorf("%s: %d root spans in the trace, want %d", s.name, n, tracedReps)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(scratchRoot, "*")); len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}
