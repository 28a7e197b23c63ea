package maestro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// triple is one (hardware, mapping, layer) evaluation input.
type triple struct {
	cfg hw.Spatial
	m   mapping.Spatial
	l   workload.Layer
}

// seededTriples draws, for both scenarios and every layer of the zoo, three
// hardware samples each followed by a RandomSpatial mapping and a chain of
// five MutateSpatial neighbours — the inputs a mapping search produces.
func seededTriples() []triple {
	rng := rand.New(rand.NewSource(20260930))
	var out []triple
	for _, sc := range []hw.Scenario{hw.Edge, hw.Cloud} {
		space := hw.NewSpatialSpace(sc)
		for _, w := range workload.All() {
			for _, l := range w.Layers {
				for s := 0; s < 3; s++ {
					cfg := space.Decode(space.Sample(rng))
					m := mapping.RandomSpatial(rng, l)
					out = append(out, triple{cfg, m, l})
					for k := 0; k < 5; k++ {
						m = mapping.MutateSpatial(rng, m, l)
						out = append(out, triple{cfg, m, l})
					}
				}
			}
		}
	}
	return out
}

// feasibleTriples filters seededTriples down to the ones the engine accepts.
func feasibleTriples(t *testing.T) []triple {
	t.Helper()
	var out []triple
	for _, tr := range seededTriples() {
		if _, err := (Engine{}).Evaluate(tr.cfg, tr.m, tr.l); err == nil {
			out = append(out, tr)
		}
	}
	if len(out) < 1000 {
		t.Fatalf("only %d feasible triples", len(out))
	}
	return out
}

// evaluateGoldenDigest is the SHA-256 of the metrics/error stream of
// seededTriples, captured on the commit where Evaluate still called Explain
// and built a Report, a map and an fmt.Errorf per call.
const evaluateGoldenDigest = "563f345bdf310a5d5642bdfbc590dc3c15bc3b9cd914ead5bf82d10605ff8254"

var (
	l1Text = regexp.MustCompile(`^maestro: mapping infeasible on hardware: L1 tile \d+ B > \d+ B$`)
	l2Text = regexp.MustCompile(`^maestro: mapping infeasible on hardware: L2 working set \d+ B > \d+ B$`)
)

// TestEvaluateStreamDigest holds Evaluate to the model it had when it still
// built a Report per call: a typed error with the capacity text on every
// infeasible triple, and a stream digest that has not moved since. The
// bound path a mapping search takes — one Bind per configuration, the
// triples' canonical mappings evaluated through it — must give the same
// stream.
func TestEvaluateStreamDigest(t *testing.T) {
	var e Engine
	triples := seededTriples()
	if len(triples) < 5000 {
		t.Fatalf("%d triples, want >= 5000", len(triples))
	}
	for _, entry := range []struct {
		name string
		eval func(tr *triple) (ppa.Metrics, error)
	}{
		{"Engine.Evaluate", func(tr *triple) (ppa.Metrics, error) { return e.Evaluate(tr.cfg, tr.m, tr.l) }},
		{"Bound.Evaluate", func(tr *triple) (ppa.Metrics, error) {
			b := e.Bind(tr.cfg)
			return b.Evaluate(tr.m, &tr.l)
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			h := sha256.New()
			var buf [8]byte
			feasible, l1Rejects, l2Rejects := 0, 0, 0
			for i := range triples {
				met, err := entry.eval(&triples[i])
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("triple %d: error %v is not ErrInfeasible", i, err)
					}
					switch text := err.Error(); {
					case l1Text.MatchString(text):
						l1Rejects++
					case l2Text.MatchString(text):
						l2Rejects++
					default:
						t.Fatalf("triple %d: unexpected rejection text %q", i, text)
					}
					if met != (ppa.Metrics{}) {
						t.Fatalf("triple %d: metrics %+v beside an error", i, met)
					}
					h.Write([]byte(err.Error()))
					continue
				}
				feasible++
				for _, v := range []float64{met.LatencyMs, met.PowerMW, met.AreaMM2, met.EnergyUJ} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			if feasible < 1000 || l1Rejects < 100 || l2Rejects < 100 {
				t.Fatalf("stream is lopsided: %d feasible, %d L1 and %d L2 rejections", feasible, l1Rejects, l2Rejects)
			}
			if runtime.GOARCH != "amd64" {
				t.Skip("digest captured on amd64; other architectures may fuse multiply-adds")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != evaluateGoldenDigest {
				t.Errorf("stream digest %s, want %s (%d feasible, %d L1, %d L2)",
					got, evaluateGoldenDigest, feasible, l1Rejects, l2Rejects)
			}
		})
	}
}

// TestInfeasibleErrorText pins the two capacity rejections' text on
// hand-computed cases.
func TestInfeasibleErrorText(t *testing.T) {
	var e Engine
	l := testLayer()
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	l1Tiny, l2Tiny := testHW(), testHW()
	l1Tiny.L1Bytes = 8
	l2Tiny.L1Bytes, l2Tiny.L2KB = 1<<20, 1
	for _, tc := range []struct {
		cfg  hw.Spatial
		want string
	}{
		// in 8·6·6, w 8·8·3·3, out 2·8·4·4, double-buffered.
		{l1Tiny, "maestro: mapping infeasible on hardware: L1 tile 2240 B > 8 B"},
		// spans K 64, C 8, Y 28 (clamped), X 4: in 8·30·6, w 64·8·9, out 2·64·28·4.
		{l2Tiny, "maestro: mapping infeasible on hardware: L2 working set 40768 B > 1024 B"},
	} {
		_, err := e.Evaluate(tc.cfg, m, l)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v: err = %v, want ErrInfeasible", tc.cfg, err)
		}
		if err.Error() != tc.want || fmt.Sprint(err) != tc.want {
			t.Errorf("%v: text %q, want %q", tc.cfg, err, tc.want)
		}
	}
}
