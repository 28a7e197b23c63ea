package camodel

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// evaluateDigest folds n seeded (core, schedule, layer) triples — random
// cores of the design space, every zoo layer, random and near-minimal
// schedules — through Evaluate: the bits of each metric, or the error text.
// It also counts the feasible triples, so a digest cannot pass by rejecting
// everything.
func evaluateDigest(n int) (uint64, int) {
	var e Engine
	space, layers := hw.NewAscendSpace(), zooLayers()
	rng := rand.New(rand.NewSource(20261015))
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	feasible := 0
	for i := 0; i < n; i++ {
		tr := drawTriple(rng, space, layers, i)
		met, err := e.Evaluate(tr.c, tr.m, tr.l)
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		feasible++
		for _, v := range []float64{met.LatencyMs, met.PowerMW, met.AreaMM2, met.EnergyUJ} {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64(), feasible
}

// TestEvaluateDigest pins Evaluate bit for bit: the digest was captured
// before the hot path lost its math.Max calls, its fmt.Errorf rejections
// and its DMA ready times, and none of these may move a bit of any result
// or a byte of any error text.
func TestEvaluateDigest(t *testing.T) {
	const want, wantFeasible = 0x9fb39467dd690517, 19070
	got, feasible := evaluateDigest(20000)
	if got != want || feasible != wantFeasible {
		t.Errorf("digest %#x over %d feasible triples, want %#x over %d", got, feasible, uint64(want), wantFeasible)
	}
}

// TestCapacityErrorText holds each of the six capacity rejections to its
// text, byte for byte, and to ErrInfeasible under errors.Is.
func TestCapacityErrorText(t *testing.T) {
	l := testLayer()
	bigK := workload.Conv("bigk", 4096, 12, 8, 8, 1, 1, 1, 1)
	with := func(f func(*hw.Ascend)) hw.Ascend {
		c := hw.DefaultAscend()
		f(&c)
		return c
	}
	cases := []struct {
		c    hw.Ascend
		m    mapping.Ascend
		l    workload.Layer
		want string
	}{
		{with(func(c *hw.Ascend) { c.CubeM, c.CubeK, c.L0AKB = 64, 64, 4 }),
			mapping.Ascend{TM: 64, TK: 64, TN: 16, FuseDepth: 1, DBufA: true}, l,
			"camodel: schedule infeasible on core: L0A needs 8192 B > 4 KB"},
		{with(func(c *hw.Ascend) { c.CubeN, c.L0BKB = 512, 4 }),
			mapping.Ascend{TM: 16, TK: 16, TN: 512, FuseDepth: 1}, l,
			"camodel: schedule infeasible on core: L0B needs 8192 B > 4 KB"},
		{with(func(c *hw.Ascend) { c.CubeM, c.CubeN, c.L0CKB = 64, 64, 16 }),
			mapping.Ascend{TM: 64, TK: 16, TN: 64, FuseDepth: 1, DBufC: true}, l,
			"camodel: schedule infeasible on core: L0C needs 32768 B > 16 KB"},
		{hw.DefaultAscend(),
			mapping.Ascend{TM: 56, TK: 108, TN: 4096, FuseDepth: 4}, l,
			"camodel: schedule infeasible on core: L1 needs 2711168 B > 1024 KB (fuse=4)"},
		{with(func(c *hw.Ascend) { c.UBKB = 1 }),
			mapping.Ascend{TM: 56, TK: 16, TN: 4096, FuseDepth: 1}, l,
			"camodel: schedule infeasible on core: UB needs 229376 B > 1 KB"},
		{with(func(c *hw.Ascend) { c.PBKB = 1 }),
			minimalSchedule(hw.DefaultAscend(), bigK), bigK,
			"camodel: schedule infeasible on core: PB needs 16384 B > 1 KB"},
	}
	var e Engine
	for _, tc := range cases {
		_, err := e.Evaluate(tc.c, tc.m.Canon(tc.l), tc.l)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Evaluate(%v, %+v) = %v, want %q", tc.c, tc.m, err, tc.want)
			continue
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%q is not ErrInfeasible", err)
		}
	}
}

// TestInfeasibleEvaluateAllocs pins the rejection path: a schedule the
// mapping search throws away costs at most the error value itself, its
// text formatted only if someone asks for it.
func TestInfeasibleEvaluateAllocs(t *testing.T) {
	var e Engine
	l := testLayer()
	c := hw.DefaultAscend()
	m := mapping.Ascend{TM: 56, TK: 108, TN: 4096, FuseDepth: 4}.Canon(l)
	n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Evaluate(c, m, l); err == nil {
			t.Fatal("no error")
		}
	})
	t.Logf("infeasible Evaluate: %.0f allocs", n)
	if n > 1 {
		t.Errorf("infeasible Evaluate allocates %.0f objects per call, want <= 1", n)
	}
}

// TestEvaluateWritesNoMetrics holds the simulator pure: a thousand calls,
// half of them rejected, leave every series of the process's registry as it
// was. A schedule search meters its own calls.
func TestEvaluateWritesNoMetrics(t *testing.T) {
	var e Engine
	l := testLayer()
	c := hw.DefaultAscend()
	ok := minimalSchedule(c, l)
	bad := mapping.Ascend{TM: 56, TK: 108, TN: 4096, FuseDepth: 4}.Canon(l)
	var before, after strings.Builder
	telemetry.DefaultRegistry.WritePrometheus(&before)
	for i := 0; i < 1000; i++ {
		if i%2 == 1 {
			if _, err := e.Evaluate(c, bad, l); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("call %d: err = %v, want ErrInfeasible", i, err)
			}
			continue
		}
		if _, err := e.Evaluate(c, ok, l); err != nil {
			t.Fatal(err)
		}
	}
	telemetry.DefaultRegistry.WritePrometheus(&after)
	if before.String() != after.String() {
		t.Errorf("Evaluate moved the registry:\n%s\nbecame\n%s", before.String(), after.String())
	}
}
