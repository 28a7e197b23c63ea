package fleet

import (
	"context"
	"encoding/json"
	"io"
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
	r.mu.Lock()
	members := make([]*member, len(r.members))
	copy(members, r.members)
	r.mu.Unlock()
	for _, m := range members {
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
		// Record after the state machine has applied the result, so the
		// timeline shows the state each probe left the shard in.
		r.recordProbe(m, err == nil, h.Jobs)
	}
}

// probeOne fetches one shard's health, observing the round trip in
// unico_fleet_health_probe_seconds.
func (r *Router) probeOne(ctx context.Context, m *member) (dist.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.id+"/v1/healthz", nil)
	if err != nil {
		return dist.HealthResponse{}, err
	}
	//unicolint:allow detclock probe latency is measured against the real clock by definition
	start := time.Now()
	resp, err := r.probe.Do(req)
	//unicolint:allow detclock probe latency is measured against the real clock by definition
	telemetry.FleetProbeSeconds().Observe(time.Since(start).Seconds())
	if err != nil {
		return dist.HealthResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return dist.HealthResponse{}, err
	}
	var h dist.HealthResponse
	if resp.StatusCode != http.StatusOK {
		return h, &probeError{status: resp.Status}
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return dist.HealthResponse{}, err
	}
	return h, nil
}

// probeError reports a non-200 health answer.
type probeError struct{ status string }

func (e *probeError) Error() string { return "fleet: health probe answered " + e.status }
