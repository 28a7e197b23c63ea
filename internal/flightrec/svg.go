// Server-side SVG rendering of a run's convergence views: the hypervolume
// curve, 2-D projections of the feasible Pareto front, and the
// successive-halving survivor table. Pure functions of RunData — no
// JavaScript, no external assets — so the unicoreport HTML report is one
// self-contained file, and a golden-file test can pin the output
// byte-for-byte.

package flightrec

import (
	"fmt"
	"html"
	"math"
	"strconv"
	"strings"

	"unico/internal/pareto"
)

// plot geometry shared by the SVG views.
const (
	plotW, plotH   = 420, 240
	plotML, plotMR = 56, 12 // left/right margins (axis labels)
	plotMT, plotMB = 16, 34 // top/bottom margins
)

// fnum renders a float deterministically and compactly for SVG/HTML output.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if math.IsNaN(v) {
		return "nan"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// coord renders an SVG coordinate with fixed precision.
func coord(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// scale maps v from [lo,hi] to pixel range [plo,phi] (degenerate ranges map
// to the midpoint).
func scale(v, lo, hi, plo, phi float64) float64 {
	if hi <= lo {
		return (plo + phi) / 2
	}
	return plo + (v-lo)/(hi-lo)*(phi-plo)
}

// HypervolumeSVG renders the hypervolume-vs-iteration curve — the per-run
// counterpart of the paper's Fig. 7 convergence curves. The record stores
// only fronts, so the curve is derived here against one reference for the
// whole record: pareto.RefPoint over every front point of every iteration.
// Each iteration's front is the front of a growing set of designs, so under
// that one reference the curve never falls.
func HypervolumeSVG(iters []Iteration) string {
	var b strings.Builder
	openSVG(&b, "Hypervolume vs iteration")
	if len(iters) == 0 {
		emptyNote(&b)
		closeSVG(&b)
		return b.String()
	}
	var all [][]float64
	for _, it := range iters {
		all = append(all, it.Front...)
	}
	ref := pareto.RefPoint(all)
	hv := make([]float64, len(iters))
	for i, it := range iters {
		hv[i] = pareto.NormalizedHypervolume(it.Front, ref)
	}
	minI, maxI := float64(iters[0].Iter), float64(iters[len(iters)-1].Iter)
	minV, maxV := minMax(hv)
	axes(&b, minI, maxI, minV, maxV, "iteration", "hypervolume (ref 1.1 × this record's max)")
	var pts []string
	for i, it := range iters {
		x := scale(float64(it.Iter), minI, maxI, plotML, plotW-plotMR)
		y := scale(hv[i], minV, maxV, plotH-plotMB, plotMT)
		pts = append(pts, coord(x)+","+coord(y))
	}
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#1f77b4" stroke-width="1.5"/>`,
		strings.Join(pts, " "))
	for _, p := range pts {
		xy := strings.SplitN(p, ",", 2)
		fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="#1f77b4"/>`, xy[0], xy[1])
	}
	closeSVG(&b)
	return b.String()
}

// objective axis names of the front's PPA points.
var objNames = [3]string{"latency ms", "power mW", "area mm²"}

// ScatterSVG renders one 2-D projection (objective xi vs yi) of the
// feasible Pareto front.
func ScatterSVG(front [][]float64, xi, yi int) string {
	var b strings.Builder
	title := fmt.Sprintf("Pareto front: %s vs %s", objNames[yi], objNames[xi])
	openSVG(&b, title)
	var xs, ys []float64
	for _, p := range front {
		// Non-finite objectives (penalty placeholders) would render as literal
		// "NaN"/"Inf" coordinates and break the SVG; drop them.
		if xi < len(p) && yi < len(p) &&
			!math.IsNaN(p[xi]) && !math.IsInf(p[xi], 0) &&
			!math.IsNaN(p[yi]) && !math.IsInf(p[yi], 0) {
			xs = append(xs, p[xi])
			ys = append(ys, p[yi])
		}
	}
	if len(xs) == 0 {
		emptyNote(&b)
		closeSVG(&b)
		return b.String()
	}
	minX, maxX := minMax(xs)
	minY, maxY := minMax(ys)
	axes(&b, minX, maxX, minY, maxY, objNames[xi], objNames[yi])
	for i := range xs {
		x := scale(xs[i], minX, maxX, plotML, plotW-plotMR)
		y := scale(ys[i], minY, maxY, plotH-plotMB, plotMT)
		fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="3" fill="#d62728" fill-opacity="0.7"/>`,
			coord(x), coord(y))
	}
	closeSVG(&b)
	return b.String()
}

// RungTableHTML renders the successive-halving survivor curves, one row per
// iteration ("30 → 15 → 8 → 4"), newest first, capped at maxRows.
func RungTableHTML(iters []Iteration, maxRows int) string {
	var b strings.Builder
	b.WriteString(`<table class="rungs"><tr><th>iter</th><th>SH survivors</th><th>feasible</th><th>evals</th></tr>`)
	n := 0
	for i := len(iters) - 1; i >= 0 && n < maxRows; i-- {
		it := iters[i]
		curve := make([]string, len(it.RungAlive))
		for j, a := range it.RungAlive {
			curve[j] = strconv.Itoa(a)
		}
		c := strings.Join(curve, " → ")
		if c == "" {
			c = "–"
		}
		fmt.Fprintf(&b, `<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td></tr>`,
			it.Iter, html.EscapeString(c), it.BatchFeasible, it.Evals)
		n++
	}
	b.WriteString(`</table>`)
	return b.String()
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func openSVG(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`,
		plotW, plotH+18, plotW, plotH+18)
	fmt.Fprintf(b, `<text x="%d" y="12" font-size="12" font-weight="bold">%s</text>`,
		plotML, html.EscapeString(title))
	// Shift the plot area below the title line.
	fmt.Fprintf(b, `<g transform="translate(0,18)">`)
}

func closeSVG(b *strings.Builder) { b.WriteString(`</g></svg>`) }

func emptyNote(b *strings.Builder) {
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="#888">no data yet</text>`,
		plotML, plotH/2)
}

// axes draws the plot frame with min/max tick labels on both axes.
func axes(b *strings.Builder, minX, maxX, minY, maxY float64, xlabel, ylabel string) {
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#bbb"/>`,
		plotML, plotMT, plotW-plotML-plotMR, plotH-plotMT-plotMB)
	// X ticks.
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="start">%s</text>`,
		plotML, plotH-plotMB+12, fnum(minX))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%s</text>`,
		plotW-plotMR, plotH-plotMB+12, fnum(maxX))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="middle" fill="#555">%s</text>`,
		(plotML+plotW-plotMR)/2, plotH-plotMB+24, html.EscapeString(xlabel))
	// Y ticks.
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%s</text>`,
		plotML-4, plotH-plotMB, fnum(minY))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%s</text>`,
		plotML-4, plotMT+8, fnum(maxY))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="middle" fill="#555" transform="rotate(-90 12 %d)">%s</text>`,
		12, (plotMT+plotH-plotMB)/2, (plotMT+plotH-plotMB)/2, html.EscapeString(ylabel))
}
