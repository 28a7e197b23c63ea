package disttrace

import (
	"bytes"
	"fmt"
	"html"
	"io"
	"sort"
	"time"
)

// WaterfallCSS is the stylesheet WaterfallHTML's markup needs; a page
// embedding the section adds it to its own.
const WaterfallCSS = `
table.trace{border-collapse:collapse;margin:.5em 0}
table.trace td,table.trace th{border:1px solid #ccd;padding:.2em .6em;text-align:left;font-size:12px}
table.trace th{background:#eef}
.lane{position:relative;height:18px;margin:1px 0}
.lane .label{position:absolute;left:0;width:30%;overflow:hidden;white-space:nowrap;text-overflow:ellipsis;font-family:monospace;font-size:11px}
.lane .track{position:absolute;left:31%;right:0;top:2px;height:14px;background:#f4f4fa}
.bar{position:absolute;top:0;height:100%;min-width:2px;border-radius:2px}
.bar.iteration{background:#6b7280}.bar.client{background:#2563eb}
.bar.attempt{background:#60a5fa}.bar.backoff{background:#f59e0b}
.bar.queue{background:#dc2626}.bar.forward{background:#9333ea}
.bar.replay{background:#db2777}.bar.shard{background:#0d9488}
.bar.engine{background:#16a34a}.bar.unknown{background:#9ca3af}
.bar.incomplete{opacity:.45;border:1px dashed #333}
.legend span{display:inline-block;padding:0 .5em;margin-right:.4em;border-radius:2px;color:#fff;font-size:11px}`

// WaterfallHTML renders one analyzed trace as a page section (styled by
// WaterfallCSS): a summary table, the self-time phase breakdown, a per-root
// waterfall with one bar per span positioned on the trace's wall-clock
// extent, and the per-eval critical paths. Output is deterministic for a
// given trace (spans and children are start-time sorted, maps iterated over
// sorted keys), so it is golden-file testable.
func WaterfallHTML(t *Trace, a *Analysis) string {
	var b bytes.Buffer
	startUS, endUS := traceExtent(t)
	total := float64(endUS - startUS)
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(&b, `<h2>Trace %s</h2>`+"\n"+`<table class="trace"><tr><th>spans</th><th>orphans</th><th>incomplete spans</th><th>evals</th><th>complete chains</th><th>incomplete chains</th><th>queue p50</th><th>queue p99</th></tr>`, html.EscapeString(t.ID))
	fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr></table>\n",
		a.Summary.Spans, a.Summary.Orphans, a.Summary.IncompleteSpans, a.Summary.Evals,
		a.Summary.CompleteChains, a.Summary.IncompleteChains,
		fmtSeconds(a.Summary.QueueWaitP50), fmtSeconds(a.Summary.QueueWaitP99))

	b.WriteString(`<h2>Phase breakdown (self time)</h2><table class="trace"><tr><th>kind</th><th>spans</th><th>self seconds</th></tr>` + "\n")
	for _, k := range a.Summary.kinds() {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td></tr>\n",
			html.EscapeString(k), a.Summary.SpansByKind[k], fmtSeconds(a.Summary.PhaseSeconds[k]))
	}
	b.WriteString("</table>\n")

	b.WriteString(`<h2>Waterfall</h2><div class="legend">`)
	for _, k := range []string{"iteration", "client", "attempt", "backoff", "queue", "forward", "replay", "shard", "engine"} {
		fmt.Fprintf(&b, `<span class="bar %s">%s</span>`, k, k)
	}
	b.WriteString("</div>\n")
	for _, root := range t.Roots {
		writeLane(&b, root, 0, startUS, endUS, total)
	}
	for _, n := range t.Orphans {
		fmt.Fprintf(&b, `<div class="lane"><div class="label">ORPHAN %s %s</div></div>`+"\n",
			html.EscapeString(n.Kind), html.EscapeString(n.ID))
	}

	if len(a.Evals) > 0 {
		b.WriteString(`<h2>Per-eval critical paths</h2><table class="trace"><tr><th>span</th><th>route</th><th>status</th><th>chain</th><th>seconds</th><th>critical path</th></tr>` + "\n")
		for _, ec := range a.Evals {
			chain := "complete"
			if !ec.Complete {
				chain = "INCOMPLETE"
			}
			var cp bytes.Buffer
			for i, step := range ec.CriticalPath {
				if i > 0 {
					cp.WriteString(" &gt; ")
				}
				fmt.Fprintf(&cp, "%s %s", html.EscapeString(step.Kind), fmtSeconds(step.Seconds))
			}
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(ec.SpanID), html.EscapeString(ec.Name), html.EscapeString(ec.Status),
				chain, fmtSeconds(ec.Seconds), cp.String())
		}
		b.WriteString("</table>\n")
	}
	return b.String()
}

// WriteText writes the trace's text summary: span health, chain
// completeness, queue wait, the self-time phase breakdown, and the critical
// paths of the five slowest evals, which tell where latency went.
func (a *Analysis) WriteText(w io.Writer) {
	s := a.Summary
	fmt.Fprintf(w, "trace %s: %d spans, %d orphans, %d incomplete spans\n", s.Trace, s.Spans, s.Orphans, s.IncompleteSpans)
	fmt.Fprintf(w, "evals: %d (%d complete chains, %d incomplete)\n", s.Evals, s.CompleteChains, s.IncompleteChains)
	fmt.Fprintf(w, "queue wait: p50 %.6fs, p99 %.6fs\nphase breakdown (self time):\n", s.QueueWaitP50, s.QueueWaitP99)
	for _, k := range s.kinds() {
		fmt.Fprintf(w, "  %-10s %4d spans  %10.6fs\n", k, s.SpansByKind[k], s.PhaseSeconds[k])
	}
	evals := append([]EvalChain(nil), a.Evals...)
	sort.Slice(evals, func(i, j int) bool { return evals[i].Seconds > evals[j].Seconds })
	for i, ec := range evals[:min(len(evals), 5)] {
		if i == 0 {
			fmt.Fprintln(w, "slowest evals:")
		}
		fmt.Fprintf(w, "  %s %s %.6fs:", ec.Name, ec.Status, ec.Seconds)
		for _, step := range ec.CriticalPath {
			fmt.Fprintf(w, " %s=%s", step.Kind, time.Duration(step.Seconds*float64(time.Second)).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}

// kinds returns the span kinds of the summary, sorted.
func (s Summary) kinds() []string {
	kinds := make([]string, 0, len(s.SpansByKind))
	for k := range s.SpansByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func traceExtent(t *Trace) (startUS, endUS int64) {
	for _, n := range t.Spans {
		if n.StartUS == 0 {
			continue
		}
		if startUS == 0 || n.StartUS < startUS {
			startUS = n.StartUS
		}
		if n.EndUS > endUS {
			endUS = n.EndUS
		}
		if n.StartUS > endUS {
			endUS = n.StartUS
		}
	}
	return startUS, endUS
}

func writeLane(b *bytes.Buffer, n *SpanNode, depth int, startUS, endUS int64, total float64) {
	left := float64(n.StartUS-startUS) / total * 100
	spanEnd := n.EndUS
	incomplete := ""
	if spanEnd == 0 {
		spanEnd = endUS // draw incomplete spans out to the trace edge
		incomplete = " incomplete"
	}
	width := float64(spanEnd-n.StartUS) / total * 100
	if width < 0 {
		width = 0
	}
	pad := depth * 8
	status := n.Status
	if status == "" {
		status = "…"
	}
	fmt.Fprintf(b, `<div class="lane"><div class="label" style="padding-left:%dpx" title="%s">%s %s [%s]</div>`+
		`<div class="track"><div class="bar %s%s" style="left:%.3f%%;width:%.3f%%" title="%s %s %s %s"></div></div></div>`+"\n",
		pad, html.EscapeString(n.ID),
		html.EscapeString(n.Kind), html.EscapeString(n.Name), html.EscapeString(status),
		html.EscapeString(n.Kind), incomplete, left, width,
		html.EscapeString(n.ID), html.EscapeString(n.Proc), fmtSeconds(n.Seconds()), html.EscapeString(status))
	for _, c := range n.Children {
		writeLane(b, c, depth+1, startUS, endUS, total)
	}
}

func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
