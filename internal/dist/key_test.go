package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// fmtKey is JobSpec.Key as an fmt rendering: the definition the key's bytes
// must keep, since job ids, release ids and ring placement are all hashes of
// it.
func fmtKey(s JobSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q %q %v %q %d", s.Platform, s.Scenario, s.Networks, s.X, s.Algo, s.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzJobSpecKey holds JobSpec.Key to the fmt rendering on specs of zero to
// two networks and zero to three coordinates, seeded with the floats whose
// shortest form is awkward (NaN, ±Inf, −0, the exponent switches at 1e-7
// and 1e21) and names holding quotes, control bytes, invalid UTF-8 and
// non-ASCII letters.
func FuzzJobSpecKey(f *testing.F) {
	nz := math.Copysign(0, -1)
	f.Add("spatial", "edge", "MobileNetV3-S", "", uint8(1), 3.5/12, 26.5/28, 0.25, uint8(3), "flextensor", int64(1))
	f.Add("ascend", "", "", "", uint8(0), 0.0, 0.0, 0.0, uint8(0), "", int64(0))
	f.Add("sp\"at", "é\x00\xff", "a b", "\"q\"", uint8(2), math.NaN(), math.Inf(1), math.Inf(-1), uint8(3), " ", int64(-1))
	f.Add("x", "y", "ResNet\\50", "网络", uint8(2), nz, 1e-7, 1e21, uint8(3), "depthfirst", int64(math.MinInt64))
	f.Add("x", "y", "n", "m", uint8(1), 1e-8, 1e20, 5e-324, uint8(3), "a", int64(math.MaxInt64))
	f.Add("", "", "", "", uint8(2), math.MaxFloat64, 0.1+0.2, 123456789.0, uint8(2), "", int64(7))
	f.Fuzz(func(t *testing.T, platform, scenario, net0, net1 string, nNets uint8, x0, x1, x2 float64, nX uint8, algo string, seed int64) {
		s := JobSpec{Platform: platform, Scenario: scenario, Algo: algo, Seed: seed}
		s.Networks = []string{net0, net1}[:nNets%3]
		if nNets%3 == 0 && nNets%2 == 0 {
			s.Networks = nil
		}
		s.X = []float64{x0, x1, x2}[:nX%4]
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Fatalf("Key(%#v) = %s, fmt rendering %s", s, got, want)
		}
	})
}
