package runid

import (
	"context"
	"testing"
)

func TestNewIsUniqueAndWellFormed(t *testing.T) {
	a, b := New(), New()
	if a == b {
		t.Errorf("two fresh IDs collide: %q", a)
	}
	if len(a) != 16 {
		t.Errorf("ID %q has length %d, want 16 hex chars", a, len(a))
	}
	for _, c := range a {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Errorf("ID %q contains non-hex char %q", a, c)
		}
	}
}

func TestWithFromRoundTrip(t *testing.T) {
	root := context.Background()
	if got := From(root); got != "" {
		t.Errorf("From(background) = %q, want empty", got)
	}
	a := With(root, "run-a")
	b, cancel := context.WithCancel(With(a, "run-b"))
	defer cancel()
	if From(a) != "run-a" || From(b) != "run-b" {
		t.Errorf("From = %q, %q; want run-a, run-b (the nearest With wins, derived contexts inherit)", From(a), From(b))
	}
	if got := From(context.WithoutCancel(b)); got != "run-b" {
		t.Errorf("From(WithoutCancel) = %q, want run-b", got)
	}
}
