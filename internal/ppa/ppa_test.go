package ppa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMetricsValid(t *testing.T) {
	good := Metrics{LatencyMs: 1, PowerMW: 2, AreaMM2: 3, EnergyUJ: 2}
	if !good.Valid() {
		t.Errorf("Valid() = false for %+v", good)
	}
	bad := []Metrics{
		{},
		{LatencyMs: -1, PowerMW: 1, AreaMM2: 1, EnergyUJ: 1},
		{LatencyMs: math.NaN(), PowerMW: 1, AreaMM2: 1, EnergyUJ: 1},
		{LatencyMs: 1, PowerMW: math.Inf(1), AreaMM2: 1, EnergyUJ: 1},
		{LatencyMs: 1, PowerMW: 1, AreaMM2: 0, EnergyUJ: 1},
	}
	for _, m := range bad {
		if m.Valid() {
			t.Errorf("Valid() = true for %+v", m)
		}
	}
}

func TestMetricsEDP(t *testing.T) {
	m := Metrics{LatencyMs: 3, EnergyUJ: 5}
	if got, want := m.EDP(), 15.0; got != want {
		t.Errorf("EDP() = %v, want %v", got, want)
	}
}

func TestHistoryLast(t *testing.T) {
	var empty History
	if p := empty.Last(); p != (Point{}) {
		t.Errorf("empty.Last() = %+v", p)
	}
	h := History{{Budget: 1, Loss: 5}, {Budget: 2, Loss: 3}}
	if h.Last().Loss != 3 {
		t.Errorf("Last().Loss = %v, want 3", h.Last().Loss)
	}
}

func TestHistoryMonotone(t *testing.T) {
	mono := History{{Budget: 1, Loss: 5}, {Budget: 2, Loss: 5}, {Budget: 3, Loss: 2}}
	if !mono.Monotone() {
		t.Error("Monotone() = false for a non-increasing history")
	}
	rise := History{{Budget: 1, Loss: 2}, {Budget: 2, Loss: 3}}
	if rise.Monotone() {
		t.Error("Monotone() = true for an increasing history")
	}
}

func TestHistoryAUCByHand(t *testing.T) {
	// Losses 4, 2, 1 at budgets 1, 2, 3; end loss 1.
	// Segment 1: trapezoid of heights (3, 1) width 1 = 2.
	// Segment 2: trapezoid of heights (1, 0) width 1 = 0.5.
	h := History{{Budget: 1, Loss: 4}, {Budget: 2, Loss: 2}, {Budget: 3, Loss: 1}}
	if got, want := h.AUC(), 2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("AUC() = %v, want %v", got, want)
	}
}

func TestHistoryAUCShortHistories(t *testing.T) {
	if (History{}).AUC() != 0 {
		t.Error("empty AUC != 0")
	}
	if (History{{Budget: 1, Loss: 7}}).AUC() != 0 {
		t.Error("singleton AUC != 0")
	}
}

func TestHistoryAUCSteeperIsLarger(t *testing.T) {
	// Two histories with the same endpoints; the one that stays high longer
	// (converging later/steeper at the end) traps more area.
	early := History{{1, 10, Metrics{}}, {2, 2, Metrics{}}, {3, 2, Metrics{}}, {4, 1, Metrics{}}}
	late := History{{1, 10, Metrics{}}, {2, 10, Metrics{}}, {3, 10, Metrics{}}, {4, 1, Metrics{}}}
	if late.AUC() <= early.AUC() {
		t.Errorf("late AUC %v should exceed early AUC %v", late.AUC(), early.AUC())
	}
}

// TestAUCNonNegativeProperty checks AUC >= 0 for any monotone history
// constructed from random non-negative decrements.
func TestAUCNonNegativeProperty(t *testing.T) {
	f := func(decs []uint8, start uint16) bool {
		loss := float64(start) + 1
		h := History{}
		for i, d := range decs {
			h = append(h, Point{Budget: i + 1, Loss: loss})
			loss -= float64(d) / 8
			if loss < 0 {
				loss = 0
			}
		}
		return h.AUC() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMonotoneAfterTruncateProperty checks the monotone contract survives
// truncation to any prefix.
func TestMonotoneAfterTruncateProperty(t *testing.T) {
	f := func(decs []uint8, cut uint8) bool {
		loss := 1000.0
		h := History{}
		for i, d := range decs {
			loss -= float64(d)
			h = append(h, Point{Budget: i + 1, Loss: loss})
		}
		return h[:min(int(cut), len(h))].Monotone()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
