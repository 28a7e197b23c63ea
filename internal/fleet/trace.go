package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"

	"unico/internal/disttrace"
	"unico/internal/telemetry"
)

// handleSpans serves GET /v1/spans?run=<id>: the router's own span events
// merged with every member's /v1/spans pull, as one JSONL stream — the
// online collector path (the offline one is `unicoreport file...`). Members
// that fail to answer are skipped (their spans surface as incomplete
// chains, which is the honest signal); members without tracing return
// empty bodies. Each merge also counts orphan spans in the combined view
// into unico_trace_orphans_total.
func (r *Router) handleSpans(w http.ResponseWriter, req *http.Request) {
	run := req.URL.Query().Get("run")
	if run == "" {
		http.Error(w, "fleet: missing run parameter", http.StatusBadRequest)
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range disttrace.Active().Events(run) {
		if err := enc.Encode(ev); err != nil {
			break
		}
	}
	for _, m := range r.members {
		// Best effort: a member that fails to answer, or answers with more
		// than dist.MaxBodyBytes, is skipped.
		rep, err := m.probe.Exchange(req.Context(), http.MethodGet, "/v1/spans?run="+url.QueryEscape(run), nil)
		if err != nil || rep.Status != http.StatusOK {
			continue
		}
		buf.Write(rep.Body)
		if n := len(rep.Body); n > 0 && rep.Body[n-1] != '\n' {
			buf.WriteByte('\n')
		}
	}
	events, _, err := disttrace.ParseEvents(bytes.NewReader(buf.Bytes()))
	if err == nil {
		for _, t := range disttrace.BuildTraces(events) {
			for range t.Orphans {
				telemetry.TraceOrphans().Inc()
			}
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(buf.Bytes())
}
