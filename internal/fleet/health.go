package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"unico/internal/dist"
	"unico/internal/telemetry"
)

// Start runs the background health prober until ctx ends: every
// ProbeInterval it probes each shard's /v1/healthz and applies the
// membership state machine. Tests that need deterministic membership call
// ProbeAll directly instead.
func (r *Router) Start(ctx context.Context) {
	go func() {
		//unicolint:allow detclock the health-probe cadence tracks real shard processes, not simulated time
		t := time.NewTicker(r.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.ProbeAll(ctx)
			}
		}
	}()
}

// ProbeAll health-probes every shard once, synchronously, and applies the
// results: "ok" re-activates, "draining" drains, and FailAfter consecutive
// probe failures mark a shard down.
func (r *Router) ProbeAll(ctx context.Context) {
	for _, m := range r.members {
		h, err := r.probeOne(ctx, m)
		switch {
		case err != nil:
			r.noteFailure(m)
		case h.Status == dist.StatusDraining:
			r.setState(m, shardDraining)
		default:
			r.noteSuccess(m)
			r.setState(m, shardActive)
		}
		if err == nil {
			r.recordJobs(m, h.Jobs)
		}
	}
}

// probeOne fetches one shard's health, observing the round trip in
// unico_fleet_health_probe_seconds.
func (r *Router) probeOne(ctx context.Context, m *member) (dist.HealthResponse, error) {
	var h dist.HealthResponse
	rep, err := m.probe.Exchange(ctx, http.MethodGet, "/v1/healthz", nil)
	telemetry.FleetProbeSeconds().Observe(rep.Seconds)
	switch {
	case err != nil:
		return h, err
	case rep.Status != http.StatusOK:
		return h, fmt.Errorf("fleet: health probe answered %d", rep.Status)
	}
	return h, json.Unmarshal(rep.Body, &h)
}
