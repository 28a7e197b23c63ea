package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Handler returns the router's HTTP API: the full internal/dist worker
// surface (/v1/ppa, /v1/jobs/advance, DELETE /v1/jobs/{id},
// /v1/healthz) plus the fleet admin endpoints /v1/fleet/members and
// /v1/fleet/{drain,undrain}?shard=<id>.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ppa", r.handlePPA)
	mux.HandleFunc("POST /v1/jobs/advance", r.handleAdvance)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleDeleteJob)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.health())
	})
	mux.HandleFunc("GET /v1/fleet/members", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Members())
	})
	mux.HandleFunc("POST /v1/fleet/drain", func(w http.ResponseWriter, req *http.Request) {
		r.handleDrain(w, req, true)
	})
	mux.HandleFunc("POST /v1/fleet/undrain", func(w http.ResponseWriter, req *http.Request) {
		r.handleDrain(w, req, false)
	})
	mux.HandleFunc("GET /v1/spans", r.handleSpans)
	return telemetry.InstrumentHandler(telemetry.DefaultRegistry, fleetRouteLabel, mux)
}

// fleetRouteLabel keeps the router's route label set bounded.
func fleetRouteLabel(req *http.Request) string {
	if p, ok := strings.CutPrefix(req.URL.Path, "/v1/jobs/"); ok && p != "" && p != "advance" {
		return "/v1/jobs/{id}"
	}
	switch req.URL.Path {
	case "/v1/ppa", "/v1/jobs/advance", "/v1/healthz", "/v1/spans",
		"/v1/fleet/members", "/v1/fleet/drain", "/v1/fleet/undrain":
		return req.URL.Path
	}
	return "other"
}

// health summarizes the fleet as one worker-compatible health body: "ok"
// while any shard is active, "draining" otherwise.
func (r *Router) health() dist.HealthResponse {
	status := dist.StatusDraining
	jobs := 0
	for _, m := range r.Members() {
		if m.State == "active" {
			status = dist.StatusOK
		}
		jobs += m.Jobs
	}
	return dist.HealthResponse{Status: status, Jobs: jobs}
}

// shed rejects a request the fleet will not take now, with the status,
// a Retry-After hint, and the reason recorded in unico_fleet_shed_total.
func (r *Router) shed(w http.ResponseWriter, status int, reason string) {
	telemetry.FleetShed(reason).Inc()
	secs := int((r.opts.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, map[string]string{"error": "fleet overloaded: " + reason})
}

// shedUnserved rejects a request no shard would take: "draining" when that
// is operator-induced, "unhealthy" when shards are dead or failing.
func (r *Router) shedUnserved(w http.ResponseWriter) {
	if r.anyDraining() {
		r.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	r.shed(w, http.StatusServiceUnavailable, "unhealthy")
}

// handlePPA admission-controls and forwards one PPA evaluation to the
// shard owning its canonical key, failing over along the ring when the
// owner misbehaves.
func (r *Router) handlePPA(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, dist.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, dist.PPAResponse{Error: "read request: " + err.Error()})
		return
	}
	var preq dist.PPARequest
	if err := json.Unmarshal(body, &preq); err != nil {
		writeJSON(w, http.StatusBadRequest, dist.PPAResponse{Error: "decode request: " + err.Error()})
		return
	}
	var point uint64
	if key, ok := dist.CanonicalEvalKey(&preq); ok {
		point = key.Uint64()
	} else {
		// Malformed requests have no canonical key; route by raw bytes so
		// the owning shard reports the error.
		point = hashBytes(body)
	}
	succ := r.successors(point)
	if len(succ) == 0 {
		r.shedUnserved(w)
		return
	}
	run := req.Header.Get(runid.Header)
	parent := disttrace.Extract(req.Header)
	for _, m := range succ {
		if !r.admit(w, req, m, run, parent) {
			return
		}
		status, rbody, err := r.forwardTo(req.Context(), m, http.MethodPost, "/v1/ppa", "/v1/ppa", body, run, parent)
		m.adm.release()
		if r.answered(m, status, err) {
			relay(w, status, rbody)
			return
		}
		if req.Context().Err() != nil {
			return
		}
	}
	r.shed(w, http.StatusServiceUnavailable, "unhealthy")
}

// admit takes one of m's forward slots for req, waiting in m's queue — fair
// across run IDs — when all are taken; the caller releases it. When the queue
// is full too it sheds the request with 429 + Retry-After, and when the
// caller goes away first it answers nothing: either way it reports false and
// the request is finished.
func (r *Router) admit(w http.ResponseWriter, req *http.Request, m *member, run string, parent disttrace.SpanContext) bool {
	// Queue wait is its own span so the waterfall separates admission
	// time from the forward round trip.
	q := disttrace.StartSpan(run, parent, "queue", m.id)
	err := m.adm.acquire(req.Context(), run)
	switch {
	case err == nil:
		q.End("ok", nil)
	case errors.Is(err, errShed):
		q.End("shed", nil)
		// Queue-full on the owner is overload, not failure: shed rather
		// than spill onto other shards (which would build a second copy of
		// a job and hide the overload).
		r.shed(w, http.StatusTooManyRequests, "queue-full")
	default:
		q.End("canceled", nil)
	}
	return err == nil
}

// errRefused is forwardTo's report of a 503 carrying Retry-After: the shard
// is alive and draining, and will not take work it does not already hold.
var errRefused = errors.New("fleet: shard refused the request (draining)")

// answered reports whether a forward brought back something to relay. When
// it did not, the shard is charged a failure — unless it refused, which is
// a healthy shard saying "not here" and must not count toward FailAfter.
func (r *Router) answered(m *member, status int, err error) bool {
	switch {
	case err == nil && status < http.StatusInternalServerError:
		r.noteSuccess(m)
		return true
	case !errors.Is(err, errRefused):
		r.noteFailure(m)
	}
	return false
}

// handleAdvance forwards an advance along the ring walk of its spec. The
// router keeps nothing about the job: the request names the spec and the
// cumulative budget, so whichever shard answers — the one that has held the
// job all along, or the next one after that shard was lost — reports the
// same state, and a shard's deterministic rejection of the spec is relayed
// like any other answer.
func (r *Router) handleAdvance(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, dist.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, dist.JobState{Error: "read request: " + err.Error()})
		return
	}
	var areq dist.AdvanceRequest
	if err := json.Unmarshal(body, &areq); err != nil {
		writeJSON(w, http.StatusBadRequest, dist.JobState{Error: "decode request: " + err.Error()})
		return
	}
	r.forwardJob(w, req, areq.Spec.Key(), http.MethodPost, "/v1/jobs/advance", "/v1/jobs/advance", body)
}

// handleDeleteJob releases a job on the first shard along its walk that
// holds it.
func (r *Router) handleDeleteJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.forwardJob(w, req, id, http.MethodDelete, "/v1/jobs/{id}", "/v1/jobs/"+id, nil)
}

// forwardJob sends a job request along the ring walk of the job's key —
// active members, and draining ones in their place, since they still answer
// for the jobs they hold — through each member's admission gate, like a PPA
// evaluation, and relays the first answer. A shard that fails is charged and
// passed over; one that refuses (draining, and not holding the job) or
// answers 404 (a release of a job it does not hold) is just passed over.
func (r *Router) forwardJob(w http.ResponseWriter, req *http.Request, key, method, route, path string, body []byte) {
	run := req.Header.Get(runid.Header)
	parent := disttrace.Extract(req.Header)
	var notFound []byte
	for _, m := range r.holders(hashBytes([]byte(key))) {
		if !r.admit(w, req, m, run, parent) {
			return
		}
		status, rbody, err := r.forwardTo(req.Context(), m, method, route, path, body, run, parent)
		m.adm.release()
		switch {
		case !r.answered(m, status, err):
			if req.Context().Err() != nil {
				return
			}
		case status == http.StatusNotFound:
			notFound = rbody
		default:
			relay(w, status, rbody)
			return
		}
	}
	if notFound != nil {
		relay(w, http.StatusNotFound, notFound)
		return
	}
	r.shedUnserved(w)
}

// handleDrain moves a shard in or out of the draining state and forwards
// the drain/undrain to the shard so it refuses work routed around the
// router too.
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request, drain bool) {
	id := req.URL.Query().Get("shard")
	m := r.memberByID(id)
	if m == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown shard %q", id)})
		return
	}
	if drain {
		r.setState(m, shardDraining)
	} else {
		r.setState(m, shardActive)
	}
	path := "/v1/undrain"
	if drain {
		path = "/v1/drain"
	}
	// Best effort: the router's own routing no longer sends the shard new
	// work either way.
	if _, _, err := r.forwardTo(req.Context(), m, http.MethodPost, path, path, []byte("{}"), req.Header.Get(runid.Header), disttrace.Extract(req.Header)); err == nil {
		r.noteSuccess(m)
	}
	writeJSON(w, http.StatusOK, r.Members())
}

// forwardTo sends one request (body nil for a DELETE) to one shard and
// returns the status and response body; err is errRefused when the shard
// answered 503 with Retry-After. route names the call in spans: path with
// any job key folded to {id}. The round trip is observed in
// unico_fleet_forward_seconds{shard} and, when tracing is on, recorded as a
// "forward" span whose context the shard parents onto; with router tracing
// off, the caller's context passes through untouched so the client→shard
// chain stays linked.
func (r *Router) forwardTo(ctx context.Context, m *member, method, route, path string, body []byte, run string, parent disttrace.SpanContext) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.id+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if run != "" {
		req.Header.Set(runid.Header, run)
	}
	fwd := disttrace.StartSpan(run, parent, "forward", route)
	injectForward(req.Header, fwd, parent)
	start := time.Now() //unicolint:allow detclock forward latency is measured against the real clock by definition
	resp, err := r.forward.Do(req)
	telemetry.FleetForwardSeconds(m.id).Observe(time.Since(start).Seconds()) //unicolint:allow detclock forward latency is measured against the real clock by definition
	if err != nil {
		fwd.End("error", nil)
		return 0, nil, err
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, dist.MaxBodyBytes))
	if err != nil {
		fwd.End("error", nil)
		return 0, nil, err
	}
	fwd.End("ok", map[string]string{"status": strconv.Itoa(resp.StatusCode)})
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
		return resp.StatusCode, rbody, errRefused
	}
	return resp.StatusCode, rbody, nil
}

// injectForward propagates span context downstream: the router's own
// forward span when tracing is on here, otherwise the upstream caller's
// context unchanged — a tracing-disabled router must not break the chain.
func injectForward(h http.Header, fwd *disttrace.Span, parent disttrace.SpanContext) {
	if sc := fwd.Context(); sc.Valid() {
		disttrace.Inject(h, sc)
		return
	}
	disttrace.Inject(h, parent)
}

// relay writes a shard's response through unchanged.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON encodes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
