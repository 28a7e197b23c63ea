package durable

import (
	"encoding/json"
	"math"
	"testing"
)

func TestExtFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN()} {
		b, err := json.Marshal(ExtFloat(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got ExtFloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		g := float64(got)
		if math.IsNaN(v) {
			if !math.IsNaN(g) {
				t.Errorf("NaN round-tripped to %v", g)
			}
		} else if g != v {
			t.Errorf("%v round-tripped to %v (wire %s)", v, g, b)
		}
	}
}

// TestExtFloatWireForms pins the bytes written (checkpoints and flight
// records are frozen formats) and everything either of the two decoders this
// type replaced used to read.
func TestExtFloatWireForms(t *testing.T) {
	for v, want := range map[float64]string{math.Inf(1): `"+Inf"`, math.Inf(-1): `"-Inf"`, 0.25: `0.25`, 3: `3`} {
		if b, err := json.Marshal(ExtFloat(v)); err != nil || string(b) != want {
			t.Errorf("marshal %v = %s, %v; want %s", v, b, err, want)
		}
	}
	if b, _ := json.Marshal(ExtFloat(math.NaN())); string(b) != `"NaN"` {
		t.Errorf("marshal NaN = %s", b)
	}
	for in, want := range map[string]float64{`"Inf"`: math.Inf(1), `"+Inf"`: math.Inf(1), `"1.5"`: 1.5, `2e3`: 2000, `null`: 0} {
		var got ExtFloat
		if err := json.Unmarshal([]byte(in), &got); err != nil || float64(got) != want {
			t.Errorf("unmarshal %s = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{`"fast"`, `""`, `{}`, `[1]`} {
		var got ExtFloat
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("unmarshal %s = %v, want an error", in, got)
		}
	}
}
