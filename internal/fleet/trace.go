package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"

	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/telemetry"
)

// handleSpans serves GET /v1/spans?run=<id>: the router's own span events
// merged with every member's /v1/spans pull, as one JSONL stream — the
// online collector path (the offline one is `unicotrace file...`). Members
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
	ids := r.memberIDs()
	for _, id := range ids {
		r.pullSpans(req, &buf, id, run)
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

// memberIDs snapshots member IDs in config order under the router lock.
func (r *Router) memberIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.members))
	for _, m := range r.members {
		ids = append(ids, m.id)
	}
	return ids
}

// pullSpans appends one member's span events for run to buf; best effort.
func (r *Router) pullSpans(req *http.Request, buf *bytes.Buffer, id, run string) {
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodGet,
		id+"/v1/spans?run="+url.QueryEscape(run), nil)
	if err != nil {
		return
	}
	resp, err := r.probe.Do(preq)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, dist.MaxBodyBytes))
	if err != nil {
		return
	}
	buf.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		buf.WriteByte('\n')
	}
}
