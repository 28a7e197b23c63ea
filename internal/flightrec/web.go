// The HTML faces of a flight record: the live `/debug/unico` dashboard
// (auto-refreshing, rendered from a run's Live store) and the
// self-contained offline report unicoreport produces from a run.jsonl.
// Both are the same ReportHTML markup; the dashboard only adds the refresh
// header.

package flightrec

import (
	"fmt"
	"html"
	"net/http"
	"strings"
)

// Source provides a consistent snapshot of a run's records for rendering.
// *Live implements it; loaded artifacts use RunData directly.
type Source interface {
	Snapshot() RunData
}

// Snapshot lets a loaded RunData act as its own Source.
func (d RunData) Snapshot() RunData { return d }

// reportCSS is the inline stylesheet of every rendered page.
const reportCSS = `body{font-family:system-ui,sans-serif;margin:16px;color:#222}
h1{font-size:18px}h2{font-size:14px;margin:18px 0 6px}
table.meta td,table.rungs td,table.rungs th{padding:2px 10px 2px 0;font-size:12px;text-align:left}
table.rungs th{border-bottom:1px solid #bbb}
.charts{display:flex;flex-wrap:wrap;gap:12px}
.state{font-size:12px;color:#555}
code{background:#f4f4f4;padding:0 3px}`

// ReportHTML renders a run's flight record as one self-contained HTML page:
// run identity, state line, hypervolume curve, the three 2-D projections of
// the latest feasible front, and the successive-halving survivor table.
// Deterministic for a given RunData (no wall-clock), so golden tests pin it.
func ReportHTML(d RunData, title string) []byte {
	var b strings.Builder
	h := d.Header
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>", html.EscapeString(title))
	fmt.Fprintf(&b, "<style>%s</style></head><body>", reportCSS)
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(title))

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
	b.WriteString(`</table>`)

	switch {
	case d.Summary != nil:
		s := d.Summary
		state := "finished"
		if s.Interrupted {
			state = "interrupted"
		}
		fmt.Fprintf(&b, `<p class="state">%s after %d iterations — %s simulated hours, %d evals, front %d, hypervolume %s</p>`,
			state, s.Iters, fnum(s.SimHours), s.Evals, s.FrontSize, fnum(s.Hypervolume))
	case len(d.Iters) > 0:
		last := d.Iters[len(d.Iters)-1]
		fmt.Fprintf(&b, `<p class="state">running — iteration %d, %s simulated hours, %d evals, front %d, hypervolume %s, UUL %s</p>`,
			last.Iter, fnum(last.SimHours), last.Evals, len(last.Front),
			fnum(last.Hypervolume), fnum(float64(last.UUL)))
	default:
		b.WriteString(`<p class="state">waiting for the first completed iteration…</p>`)
	}

	var front [][]float64
	if n := len(d.Iters); n > 0 {
		front = d.Iters[n-1].Front
	}
	b.WriteString(`<div class="charts">`)
	b.WriteString(HypervolumeSVG(d.Iters))
	b.WriteString(ScatterSVG(front, 0, 1))
	b.WriteString(ScatterSVG(front, 0, 2))
	b.WriteString(ScatterSVG(front, 1, 2))
	b.WriteString(`</div>`)

	b.WriteString(`<h2>Successive-halving survivors</h2>`)
	b.WriteString(RungTableHTML(d.Iters, 20))

	b.WriteString(`<h2>Phase breakdown</h2>`)
	b.WriteString(`<div class="charts">`)
	b.WriteString(PhaseBarsSVG(d.Iters))
	b.WriteString(`</div>`)
	b.WriteString(PhaseTableHTML(d.Iters, 32))
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// DashboardHandler serves the live dashboard from src: the ReportHTML page
// with an auto-refresh header so a browser follows a multi-hour run without
// any client-side code. Mount it at GET /debug/unico on the telemetry debug
// mux.
func DashboardHandler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if src == nil {
			http.Error(w, "no live run source installed", http.StatusServiceUnavailable)
			return
		}
		d := src.Snapshot()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Refresh", "3")
		title := "unico co-search"
		if d.Header.RunID != "" {
			title += " — run " + d.Header.RunID
		}
		_, _ = w.Write(ReportHTML(d, title))
	})
}
