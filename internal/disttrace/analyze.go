package disttrace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"unico/internal/durable"
)

// ParseEvents reads JSONL span events, skipping malformed lines (a torn
// final line from a killed process is expected, not an error) and
// duplicates of a (span, ev) pair already seen — merged inputs may overlap.
// It returns the events and the count of skipped lines.
func ParseEvents(rd io.Reader) ([]Event, int, error) {
	var out []Event
	seen := map[[2]string]bool{}
	skipped, err := durable.ReadLines(rd, func(line []byte) error {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || ev.Trace == "" || ev.Span == "" ||
			(ev.Ev != "start" && ev.Ev != "end") || seen[[2]string{ev.Span, ev.Ev}] {
			return durable.ErrSkip
		}
		seen[[2]string{ev.Span, ev.Ev}] = true
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return out, skipped, fmt.Errorf("disttrace: scan events: %w", err)
	}
	return out, skipped, nil
}

// LoadFiles merges span events from several JSONL logs (e.g. one per fleet
// process) by parsing them as one stream:
// a (span, ev) pair repeated anywhere keeps its first occurrence, and every
// dropped line counts as skipped.
func LoadFiles(paths ...string) ([]Event, int, error) {
	var rs []io.Reader
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		rs = append(rs, f, strings.NewReader("\n")) // a file's torn last line stays its own
	}
	return ParseEvents(io.MultiReader(rs...))
}

// SpanNode is one reconstructed span in a trace tree.
type SpanNode struct {
	ID       string
	Parent   string
	Kind     string
	Name     string
	Proc     string
	StartUS  int64
	EndUS    int64 // 0: incomplete (no end event reached disk)
	Status   string
	Attrs    map[string]string
	Children []*SpanNode
}

// Seconds returns the span duration; 0 for incomplete spans.
func (n *SpanNode) Seconds() float64 {
	if n.EndUS == 0 || n.EndUS < n.StartUS {
		return 0
	}
	return float64(n.EndUS-n.StartUS) / 1e6
}

// Trace is one reconstructed trace: all spans of a run, tree-linked.
type Trace struct {
	ID      string
	Spans   []*SpanNode // sorted by start time, then span ID
	Roots   []*SpanNode
	Orphans []*SpanNode
}

// BuildTraces groups events by trace ID and reconstructs each trace's span
// tree. End events without a start (the start's log was lost entirely) are
// synthesized into orphan spans so the loss is visible rather than silent.
// Traces are returned sorted by ID; children sorted by start time.
func BuildTraces(events []Event) []*Trace {
	byTrace := map[string]map[string]*SpanNode{}
	var traceIDs []string
	node := func(trace, span string) *SpanNode {
		m := byTrace[trace]
		if m == nil {
			m = map[string]*SpanNode{}
			byTrace[trace] = m
			traceIDs = append(traceIDs, trace)
		}
		n := m[span]
		if n == nil {
			n = &SpanNode{ID: span}
			m[span] = n
		}
		return n
	}
	for _, ev := range events {
		n := node(ev.Trace, ev.Span)
		switch ev.Ev {
		case "start":
			n.Parent, n.Kind, n.Name, n.Proc, n.StartUS = ev.Parent, ev.Kind, ev.Name, ev.Proc, ev.TimeUS
		case "end":
			n.EndUS, n.Status = ev.TimeUS, ev.Status
			if ev.Attrs != nil {
				n.Attrs = ev.Attrs
			}
		}
	}
	sort.Strings(traceIDs)
	out := make([]*Trace, 0, len(traceIDs))
	for _, id := range traceIDs {
		m := byTrace[id]
		t := &Trace{ID: id}
		for _, n := range m {
			t.Spans = append(t.Spans, n)
		}
		sort.Slice(t.Spans, func(i, j int) bool {
			if t.Spans[i].StartUS != t.Spans[j].StartUS {
				return t.Spans[i].StartUS < t.Spans[j].StartUS
			}
			return t.Spans[i].ID < t.Spans[j].ID
		})
		for _, n := range t.Spans {
			switch {
			case n.StartUS == 0 && n.Kind == "":
				// end without start: the start record never reached disk.
				t.Orphans = append(t.Orphans, n)
			case n.Parent == "":
				t.Roots = append(t.Roots, n)
			default:
				if p := m[n.Parent]; p != nil {
					p.Children = append(p.Children, n)
				} else {
					t.Orphans = append(t.Orphans, n)
				}
			}
			if n.Kind == "" {
				n.Kind = "unknown" // labelled here, once, for every view of the trace
			}
		}
		out = append(out, t)
	}
	return out
}

// evalRoutes are the client span names whose ok completion requires a
// finished engine descendant — the chain-completeness rule unicoreport gates
// on. Budget-0 advance polls still record an engine span on the shard, so
// the rule holds uniformly.
var evalRoutes = map[string]bool{"/v1/ppa": true, "/v1/jobs/advance": true}

// PathStep is one hop of a critical path.
type PathStep struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Proc    string  `json:"proc,omitempty"`
	Seconds float64 `json:"seconds"`
}

// EvalChain is the analysis of one remote eval (a client span on an eval
// route): whether its causal chain reached an engine span, where its time
// went (self-time by span kind), and the critical path through its subtree.
type EvalChain struct {
	SpanID       string             `json:"span"`
	Name         string             `json:"name"`
	Status       string             `json:"status"`
	Seconds      float64            `json:"seconds"`
	Complete     bool               `json:"complete"`
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	CriticalPath []PathStep         `json:"critical_path"`
}

// Summary is the machine-readable roll-up of one trace: what
// `unicoreport -summary` writes and `unicoreport -gate` checks.
type Summary struct {
	Trace            string             `json:"trace"`
	Spans            int                `json:"spans"`
	SpansByKind      map[string]int     `json:"spans_by_kind"`
	Orphans          int                `json:"orphans"`
	IncompleteSpans  int                `json:"incomplete_spans"`
	Evals            int                `json:"evals"`
	CompleteChains   int                `json:"complete_chains"`
	IncompleteChains int                `json:"incomplete_chains"`
	PhaseSeconds     map[string]float64 `json:"phase_seconds"`
	QueueWaitP50     float64            `json:"queue_wait_p50_seconds"`
	QueueWaitP99     float64            `json:"queue_wait_p99_seconds"`
}

// Analysis is the full result of analyzing one trace.
type Analysis struct {
	Summary Summary     `json:"summary"`
	Evals   []EvalChain `json:"evals"`
}

// Analyze reconstructs chain completeness, phase breakdown, queue-wait
// percentiles, and per-eval critical paths for one trace.
//
// The phase breakdown is self-time by span kind: each span contributes its
// duration minus the summed durations of its children (clamped at zero, so
// cross-process clock skew can't go negative). That decomposition is
// topology-agnostic — it attributes time correctly whether an eval went
// client→attempt→shard→engine directly or through the router's
// queue/forward spans — and sums to total wall time per subtree.
func Analyze(t *Trace) *Analysis {
	a := &Analysis{Summary: Summary{
		Trace:        t.ID,
		Spans:        len(t.Spans),
		SpansByKind:  map[string]int{},
		PhaseSeconds: map[string]float64{},
		Orphans:      len(t.Orphans),
	}}
	var queueWaits []float64
	for _, n := range t.Spans {
		a.Summary.SpansByKind[n.Kind]++
		if n.EndUS == 0 {
			a.Summary.IncompleteSpans++
		}
		a.Summary.PhaseSeconds[n.Kind] += selfSeconds(n)
		if n.Kind == "queue" && n.EndUS != 0 {
			queueWaits = append(queueWaits, n.Seconds())
		}
	}
	a.Summary.QueueWaitP50 = percentile(queueWaits, 0.50)
	a.Summary.QueueWaitP99 = percentile(queueWaits, 0.99)
	for _, n := range t.Spans {
		if n.Kind != "client" || !evalRoutes[n.Name] {
			continue
		}
		ec := EvalChain{
			SpanID: n.ID, Name: n.Name, Status: n.Status,
			Seconds:      n.Seconds(),
			PhaseSeconds: map[string]float64{},
			CriticalPath: criticalPath(n),
		}
		collectPhases(n, ec.PhaseSeconds)
		// Only an ok-completed client call promises the work happened; a
		// failed or still-open call is allowed to have a broken chain.
		ec.Complete = hasEndedEngine(n)
		a.Summary.Evals++
		if n.Status == "ok" && n.EndUS != 0 {
			if ec.Complete {
				a.Summary.CompleteChains++
			} else {
				a.Summary.IncompleteChains++
			}
		} else if ec.Complete {
			a.Summary.CompleteChains++
		}
		a.Evals = append(a.Evals, ec)
	}
	return a
}

func selfSeconds(n *SpanNode) float64 {
	self := n.Seconds()
	for _, c := range n.Children {
		self -= c.Seconds()
	}
	if self < 0 {
		self = 0
	}
	return self
}

func collectPhases(n *SpanNode, into map[string]float64) {
	into[n.Kind] += selfSeconds(n)
	for _, c := range n.Children {
		collectPhases(c, into)
	}
}

func hasEndedEngine(n *SpanNode) bool {
	for _, c := range n.Children {
		if c.Kind == "engine" && c.EndUS != 0 {
			return true
		}
		if hasEndedEngine(c) {
			return true
		}
	}
	return false
}

// criticalPath walks from the eval span down its longest-duration child at
// each level, which in this topology is the chain that bounded the eval's
// latency.
func criticalPath(n *SpanNode) []PathStep {
	var path []PathStep
	for cur := n; cur != nil; {
		path = append(path, PathStep{Kind: cur.Kind, Name: cur.Name, Proc: cur.Proc, Seconds: cur.Seconds()})
		var next *SpanNode
		for _, c := range cur.Children {
			if next == nil || c.Seconds() > next.Seconds() {
				next = c
			}
		}
		cur = next
	}
	return path
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(float64(len(sorted))*q+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
