// Package runid generates the per-run correlation ID that ties a co-search's
// observability surfaces together — every slog record, the flight record
// header, the distributed-trace ID, and every internal/dist request (as the
// Header HTTP header, which ppaserver echoes into its request logs and
// metrics and the fleet router fair-queues on) — and carries it on the run's
// context.Context, so two co-searches in one process each keep their own.
package runid

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// Header is the HTTP header carrying the run ID across the dist boundary.
const Header = "X-Unico-Run-ID"

// New returns a fresh random run ID (16 hex chars).
func New() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; a fixed fallback
		// keeps the ID non-empty rather than panicking a long run.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

type ctxKey struct{}

// With returns a context carrying id as its run's ID.
func With(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// From returns the run ID ctx carries, or "" when it belongs to no run.
func From(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
