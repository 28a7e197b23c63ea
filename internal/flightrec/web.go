// The HTML face of a flight record: the self-contained report unicoreport
// produces from a run.jsonl, finished or still being written. It is the
// ReportBody markup inside the Page skeleton; unicoreport may add a trace
// section.

package flightrec

import (
	"fmt"
	"html"
	"strings"
)

// reportCSS is the inline stylesheet of every rendered page.
const reportCSS = `body{font-family:system-ui,sans-serif;margin:16px;color:#222}
h1{font-size:18px}h2{font-size:14px;margin:18px 0 6px}
table.meta td,table.rungs td,table.rungs th{padding:2px 10px 2px 0;font-size:12px;text-align:left}
table.rungs th{border-bottom:1px solid #bbb}
.charts{display:flex;flex-wrap:wrap;gap:12px}
.state{font-size:12px;color:#555}
code{background:#f4f4f4;padding:0 3px}`

// Page writes the skeleton every report page shares — doctype, head, one
// stylesheet (reportCSS followed by css), the <h1> title — around sections,
// in order. Sections are trusted markup; the title is escaped.
func Page(title, css string, sections ...string) []byte {
	t := html.EscapeString(title)
	return []byte(fmt.Sprintf("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title><style>%s%s</style></head><body><h1>%s</h1>%s</body></html>\n",
		t, reportCSS, css, t, strings.Join(sections, "")))
}

// ReportBody renders a run's flight record as page markup: run identity,
// state line, hypervolume curve (derived from the stored fronts), the three
// 2-D projections of the latest feasible front, and the successive-halving
// survivor table. Deterministic for a given RunData (no wall-clock), so
// golden tests pin it.
func ReportBody(d RunData) string {
	var b strings.Builder
	h := d.Header
	b.WriteString(`<table class="meta">`)
	metaRow := func(k, v string) {
		if v != "" {
			fmt.Fprintf(&b, "<tr><td>%s</td><td><code>%s</code></td></tr>",
				html.EscapeString(k), html.EscapeString(v))
		}
	}
	metaRow("run ID", h.RunID)
	metaRow("method", h.Method)
	metaRow("workload", h.Workload)
	if h.Seed != 0 || h.Batch != 0 {
		metaRow("seed / batch / iters / b_max", fmt.Sprintf("%d / %d / %d / %d",
			h.Seed, h.Batch, h.MaxIter, h.BMax))
	}
	metaRow("started", h.StartedAt)
	metaRow("revision", h.Revision)
	fmt.Fprintf(&b, `</table><p class="state">%s</p>`, d.State())
	var front [][]float64
	if n := len(d.Iters); n > 0 {
		front = d.Iters[n-1].Front
	}
	b.WriteString(`<div class="charts">` + HypervolumeSVG(d.Iters) +
		ScatterSVG(front, 0, 1) + ScatterSVG(front, 0, 2) + ScatterSVG(front, 1, 2) + `</div>`)
	b.WriteString(`<h2>Successive-halving survivors</h2>` + RungTableHTML(d.Iters, 20))
	return b.String()
}

// State is the run's one-line convergence state: finished or interrupted
// with its last iteration's totals, running with its latest iteration, or
// waiting.
func (d RunData) State() string {
	var last Iteration
	if n := len(d.Iters); n > 0 {
		last = d.Iters[n-1]
	}
	if s := d.Summary; s != nil {
		state := "finished"
		if s.Interrupted {
			state = "interrupted"
		}
		return fmt.Sprintf("%s after %d iterations — %s simulated hours, %d evals, front %d",
			state, last.Iter, fnum(last.SimHours), last.Evals, len(last.Front))
	}
	if len(d.Iters) > 0 {
		return fmt.Sprintf("running — iteration %d, %s simulated hours, %d evals, front %d, UUL %s",
			last.Iter, fnum(last.SimHours), last.Evals, len(last.Front), fnum(float64(last.UUL)))
	}
	return "waiting for the first completed iteration…"
}
