package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Handler returns the router's HTTP API: the full internal/dist worker
// surface (/v1/ppa, /v1/jobs/advance, /v1/jobs/release, /v1/healthz) plus
// the fleet admin endpoints /v1/fleet/members and
// /v1/fleet/{drain,undrain}?shard=<id>.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ppa", r.handlePPA)
	mux.HandleFunc("POST /v1/jobs/advance", r.handleAdvance)
	mux.HandleFunc("POST /v1/jobs/release", r.handleRelease)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		dist.WriteJSON(w, http.StatusOK, r.health())
	})
	mux.HandleFunc("GET /v1/fleet/members", func(w http.ResponseWriter, req *http.Request) {
		dist.WriteJSON(w, http.StatusOK, r.Members())
	})
	mux.HandleFunc("POST /v1/fleet/drain", func(w http.ResponseWriter, req *http.Request) {
		r.handleDrain(w, req, true)
	})
	mux.HandleFunc("POST /v1/fleet/undrain", func(w http.ResponseWriter, req *http.Request) {
		r.handleDrain(w, req, false)
	})
	return telemetry.InstrumentHandler(telemetry.DefaultRegistry,
		dist.RouteLabel("/v1/fleet/members", "/v1/fleet/drain", "/v1/fleet/undrain"), mux)
}

// hopContext is req's context carrying what its headers name — the run the
// request belongs to and the span it runs under — which is where the
// exchange with a shard reads them back, so both pass through the router
// unchanged.
func hopContext(req *http.Request) context.Context {
	ctx := runid.With(req.Context(), req.Header.Get(runid.Header))
	return disttrace.WithParent(ctx, disttrace.Extract(req.Header))
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
	dist.WriteJSON(w, status, map[string]string{"error": "fleet overloaded: " + reason})
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
	var preq dist.PPARequest
	body, err := dist.DecodeBody(w, req, &preq)
	if err != nil {
		dist.WriteJSON(w, http.StatusBadRequest, dist.PPAResponse{Error: "bad request: " + err.Error()})
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
	r.route(w, req, r.successors(point), "/v1/ppa", body)
}

// admit takes one of m's forward slots for ctx's request, waiting in m's queue — fair
// across run IDs — when all are taken; the caller releases it. When the queue
// is full too it sheds the request with 429 + Retry-After, and when the
// caller goes away first it answers nothing: either way it reports false and
// the request is finished.
func (r *Router) admit(ctx context.Context, w http.ResponseWriter, m *member) bool {
	run := runid.From(ctx)
	// Queue wait is its own span so the waterfall separates admission
	// time from the forward round trip.
	q := disttrace.StartSpan(run, disttrace.Parent(ctx), "queue", m.id)
	err := m.adm.acquire(ctx, run)
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
	var areq dist.AdvanceRequest
	body, err := dist.DecodeBody(w, req, &areq)
	if err != nil {
		dist.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request: " + err.Error()})
		return
	}
	r.route(w, req, r.holders(hashBytes([]byte(areq.Spec.Key()))), "/v1/jobs/advance", body)
}

// handleRelease passes a batch of job keys to every shard that is not
// down, each through its admission gate: a job's copies are wherever its
// advances were answered, which a shard passed over while unreachable does
// not see, so no one shard can be named. The answer sums what the shards
// released; a shard that gives no usable answer makes it a 502, so the
// caller sends the batch again — releasing twice changes nothing.
func (r *Router) handleRelease(w http.ResponseWriter, req *http.Request) {
	var rreq dist.ReleaseRequest
	body, err := dist.DecodeBody(w, req, &rreq)
	if err != nil {
		dist.WriteJSON(w, http.StatusBadRequest, dist.ReleaseResponse{Error: "bad request: " + err.Error()})
		return
	}
	walk := r.holders(0) // every member not down, draining ones included
	if len(walk) == 0 {
		r.shedUnserved(w)
		return
	}
	ctx := hopContext(req)
	var sum dist.ReleaseResponse
	var missed []string
	for _, m := range walk {
		if !r.admit(ctx, w, m) {
			return
		}
		rep, err := r.forwardTo(ctx, m, "/v1/jobs/release", body)
		m.adm.release()
		var got dist.ReleaseResponse
		switch {
		case !r.answered(m, rep.Status, err):
			if ctx.Err() != nil {
				return
			}
			missed = append(missed, m.id)
		case rep.Status != http.StatusOK || json.Unmarshal(rep.Body, &got) != nil:
			missed = append(missed, m.id)
		default:
			sum.Released += got.Released
		}
	}
	if len(missed) > 0 {
		dist.WriteJSON(w, http.StatusBadGateway, dist.ReleaseResponse{Error: fmt.Sprintf("no release from %v", missed)})
		return
	}
	dist.WriteJSON(w, http.StatusOK, sum)
}

// route sends one request along walk, through each member's admission gate,
// and relays the first answer. A shard that fails is charged and passed
// over; one that refuses (draining, and not holding the job) is just passed
// over. PPA evaluations walk successors, the active members; job advances
// walk holders, which keeps draining members in their place, since they
// still answer for the jobs they hold.
func (r *Router) route(w http.ResponseWriter, req *http.Request, walk []*member, path string, body []byte) {
	ctx := hopContext(req)
	for _, m := range walk {
		if !r.admit(ctx, w, m) {
			return
		}
		rep, err := r.forwardTo(ctx, m, path, body)
		m.adm.release()
		if r.answered(m, rep.Status, err) {
			relay(w, rep)
			return
		}
		if ctx.Err() != nil {
			return
		}
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
		dist.WriteJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown shard %q", id)})
		return
	}
	path := "/v1/undrain"
	if drain {
		r.setState(m, shardDraining)
		path = "/v1/drain"
	} else {
		r.setState(m, shardActive)
	}
	// Best effort: the router's own routing no longer sends the shard new
	// work either way.
	if _, err := r.forwardTo(hopContext(req), m, path, []byte("{}")); err == nil {
		r.noteSuccess(m)
	}
	dist.WriteJSON(w, http.StatusOK, r.Members())
}

// forwardTo POSTs body to path on one shard under ctx's run and returns
// the answer; err is errRefused when the shard answered 503 with
// Retry-After, and the exchange's own when there is no answer to relay
// (transport failure, or a body past dist.MaxBodyBytes). The round trip is
// observed in unico_fleet_forward_seconds{shard} and, when tracing is on,
// recorded as a "forward" span the shard parents onto; with router tracing
// off the span is nil and the caller's parent rides ctx through untouched, so
// the client→shard chain stays linked.
func (r *Router) forwardTo(ctx context.Context, m *member, path string, body []byte) (dist.Reply, error) {
	fwd := disttrace.StartSpan(runid.From(ctx), disttrace.Parent(ctx), "forward", path)
	rep, err := m.forward.Exchange(disttrace.WithParent(ctx, fwd.Context()), http.MethodPost, path, body)
	telemetry.FleetForwardSeconds(m.id).Observe(rep.Seconds)
	if err != nil {
		fwd.End("error", nil)
		return rep, err
	}
	fwd.End("ok", map[string]string{"status": strconv.Itoa(rep.Status)})
	if rep.Status == http.StatusServiceUnavailable && rep.Header.Get("Retry-After") != "" {
		return rep, errRefused
	}
	return rep, nil
}

// relay writes a shard's response through unchanged: its status, its
// Content-Type — JSON, or an advance answer's bytes — and its body.
func relay(w http.ResponseWriter, rep dist.Reply) {
	if ct := rep.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rep.Body)))
	w.WriteHeader(rep.Status)
	_, _ = w.Write(rep.Body)
}
