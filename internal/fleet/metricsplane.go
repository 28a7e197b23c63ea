package fleet

import (
	"bytes"
	"fmt"
	"html"
	"io"
	"net/http"
	"strings"

	"unico/internal/dist"
)

// FleetMetricsHandler serves GET /metrics/fleet: every member's /metrics
// exposition scraped (with the probe client, so a dead shard costs one
// probe timeout, not a forward timeout), re-labeled with shard="<base-url>",
// and regrouped so each metric family appears once with all shards' series
// under it — the shape Prometheus requires. Members are scraped in
// configuration order, making the output deterministic for a static fleet.
// A synthetic unico_fleet_scrape_ok{shard} gauge reports per-member scrape
// success, so the aggregated view distinguishes "shard idle" from "shard
// unreachable".
func (r *Router) FleetMetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		agg := newFamilyAgg()
		var okLines []string
		for _, m := range r.members {
			rep, err := m.probe.Exchange(req.Context(), http.MethodGet, "/metrics", nil)
			up := 0
			if err == nil && rep.Status == http.StatusOK {
				agg.addExposition(string(rep.Body), m.id)
				up = 1
			}
			okLines = append(okLines, fmt.Sprintf("unico_fleet_scrape_ok{shard=%q} %d", m.id, up))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		agg.write(w)
		fmt.Fprintf(w, "# HELP unico_fleet_scrape_ok Whether the last /metrics scrape of the shard succeeded.\n")
		fmt.Fprintf(w, "# TYPE unico_fleet_scrape_ok gauge\n")
		for _, l := range okLines {
			fmt.Fprintln(w, l)
		}
	})
}

// familyAgg regroups sample lines from several expositions by metric
// family, preserving first-seen family order and each family's HELP/TYPE.
type familyAgg struct {
	order []string
	help  map[string]string
	typ   map[string]string
	lines map[string][]string
}

func newFamilyAgg() *familyAgg {
	return &familyAgg{help: map[string]string{}, typ: map[string]string{}, lines: map[string][]string{}}
}

// addExposition parses one member's text exposition. Sample lines belong to
// the family announced by the preceding # TYPE line (our expositions always
// emit HELP/TYPE before samples — histogram _bucket/_sum/_count lines
// group under their family that way without suffix games).
func (a *familyAgg) addExposition(text, shard string) {
	current := ""
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if name, help, found := strings.Cut(rest, " "); found {
				a.ensure(name)
				if a.help[name] == "" {
					a.help[name] = help
				}
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, found := strings.Cut(rest, " "); found {
				a.ensure(name)
				if a.typ[name] == "" {
					a.typ[name] = typ
				}
				current = name
			}
			continue
		}
		if strings.HasPrefix(line, "#") || current == "" {
			continue
		}
		a.lines[current] = append(a.lines[current], relabel(line, shard))
	}
}

func (a *familyAgg) ensure(name string) {
	if _, ok := a.help[name]; ok {
		return
	}
	if _, ok := a.typ[name]; ok {
		return
	}
	if _, ok := a.lines[name]; ok {
		return
	}
	a.order = append(a.order, name)
	a.help[name] = ""
	a.typ[name] = ""
}

func (a *familyAgg) write(w io.Writer) {
	for _, name := range a.order {
		if len(a.lines[name]) == 0 {
			continue
		}
		if h := a.help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		if t := a.typ[name]; t != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, t)
		}
		for _, l := range a.lines[name] {
			fmt.Fprintln(w, l)
		}
	}
}

// relabel injects shard="<id>" into one sample line, either into the
// existing label braces or as a fresh label set before the value.
func relabel(line, shard string) string {
	label := fmt.Sprintf("shard=%q", shard)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		if j := strings.IndexByte(line, ' '); j < 0 || i < j {
			sep := ","
			if strings.HasPrefix(line[i+1:], "}") {
				sep = ""
			}
			return line[:i+1] + label + sep + line[i+1:]
		}
	}
	if j := strings.IndexByte(line, ' '); j > 0 {
		return line[:j] + "{" + label + "}" + line[j:]
	}
	return line
}

// DebugHandler serves GET /debug/unico/fleet: per-shard status and health
// timelines as HTML (or JSON with ?format=json), plus a link to the
// aggregated /metrics/fleet view.
func (r *Router) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tls := r.Timelines()
		if req.URL.Query().Get("format") == "json" {
			dist.WriteJSON(w, http.StatusOK, tls)
			return
		}
		var b bytes.Buffer
		b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>unico fleet</title>
<style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em; }
table { border-collapse: collapse; } td, th { border: 1px solid #ccd; padding: .2em .6em; }
.tl { display: inline-block; vertical-align: middle; }
.tl span { display: inline-block; width: 5px; height: 14px; margin-right: 1px; }
.ok { background: #16a34a; } .fail { background: #dc2626; }
.state-active { color: #16a34a; } .state-draining { color: #f59e0b; } .state-down { color: #dc2626; }
</style></head><body><h1>Fleet health</h1>
<p><a href="/metrics/fleet">aggregated /metrics/fleet</a></p>
<table><tr><th>shard</th><th>state</th><th>probe timeline (old → new)</th></tr>
`)
		for _, tl := range tls {
			fmt.Fprintf(&b, `<tr><td>%s</td><td class="state-%s">%s</td><td><span class="tl">`,
				html.EscapeString(tl.ID), html.EscapeString(tl.State), html.EscapeString(tl.State))
			for _, ev := range tl.Events {
				cls := "fail"
				if ev.OK {
					cls = "ok"
				}
				fmt.Fprintf(&b, `<span class="%s" title="%s"></span>`, cls, html.EscapeString(ev.State))
			}
			b.WriteString("</span></td></tr>\n")
		}
		b.WriteString("</table></body></html>\n")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(b.Bytes())
	})
}
