package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines; run with -race to verify the atomics.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "counter", nil)
	g := reg.Gauge("g", "gauge", nil)
	h := reg.Histogram("h_seconds", "histogram", []float64{0.1, 1, 10}, nil)

	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%20) / 2) // 0 .. 9.5
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker / 20 * (0 + 0.5 + 1 + 1.5 + 2 + 2.5 + 3 + 3.5 + 4 + 4.5 + 5 + 5.5 + 6 + 6.5 + 7 + 7.5 + 8 + 8.5 + 9 + 9.5) / 1
	if got := h.Sum(); got < wantSum-1e-6 || got > wantSum+1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestSameInstanceReturned verifies registry memoization: the same
// (name, labels) pair always yields the same metric.
func TestSameInstanceReturned(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", Labels{"k": "v", "a": "b"})
	b := reg.Counter("x_total", "", Labels{"a": "b", "k": "v"})
	if a != b {
		t.Fatal("same name+labels returned different counters")
	}
	other := reg.Counter("x_total", "", Labels{"a": "b", "k": "w"})
	if a == other {
		t.Fatal("different labels returned the same counter")
	}
}

// TestPrometheusGolden locks the text exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("unico_test_requests_total", "Requests served.",
		Labels{"route": "/v1/ppa", "method": "POST"})
	c.Add(3)
	g := reg.Gauge("unico_test_inflight", "In-flight requests.", nil)
	g.Set(2.5)
	// Power-of-two observations keep the float sum exact, so the golden
	// string is stable.
	h := reg.Histogram("unico_test_latency_seconds", "Latency.", []float64{0.1, 1}, nil)
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(4)

	var b strings.Builder
	reg.WritePrometheus(&b)
	want := `# HELP unico_test_requests_total Requests served.
# TYPE unico_test_requests_total counter
unico_test_requests_total{method="POST",route="/v1/ppa"} 3
# HELP unico_test_inflight In-flight requests.
# TYPE unico_test_inflight gauge
unico_test_inflight 2.5
# HELP unico_test_latency_seconds Latency.
# TYPE unico_test_latency_seconds histogram
unico_test_latency_seconds_bucket{le="0.1"} 1
unico_test_latency_seconds_bucket{le="1"} 2
unico_test_latency_seconds_bucket{le="+Inf"} 3
unico_test_latency_seconds_sum 4.5625
unico_test_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketEdges verifies le (<=) bucket semantics on the bounds.
func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edges", "", []float64{1, 2}, nil)
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, line := range []string{
		`edges_bucket{le="1"} 1`,
		`edges_bucket{le="2"} 2`,
		`edges_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestLabelEscaping verifies quotes and backslashes survive rendering.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", Labels{"p": `a"b\c`}).Inc()
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{p="a\"b\\c"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

// TestQuantileEdges covers the histogram quantile estimator's boundary
// behavior: empty histograms, a single observation, all-equal values, and
// out-of-range q clamping.
func TestQuantileEdges(t *testing.T) {
	buckets := []float64{1, 2, 4}

	empty := NewHistogram(buckets)
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}

	single := NewHistogram(buckets)
	single.Observe(1.5)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := single.Quantile(q)
		if got < 1 || got > 2 {
			t.Errorf("single-observation quantile(%v) = %v, want in [1, 2]", q, got)
		}
	}

	equal := NewHistogram(buckets)
	for i := 0; i < 100; i++ {
		equal.Observe(3)
	}
	p50, p95 := equal.Quantile(0.5), equal.Quantile(0.95)
	if p50 <= 2 || p50 > 4 || p95 <= 2 || p95 > 4 {
		t.Errorf("all-equal quantiles p50=%v p95=%v, want both in (2, 4]", p50, p95)
	}
	if p95 < p50 {
		t.Errorf("p95 %v < p50 %v", p95, p50)
	}

	// q outside [0, 1] clamps rather than panicking or extrapolating.
	if lo, hi := equal.Quantile(-3), equal.Quantile(7); lo > hi || hi > 4 {
		t.Errorf("clamped quantiles lo=%v hi=%v", lo, hi)
	}

	// Observations above the top bucket report the top finite bound.
	over := NewHistogram(buckets)
	over.Observe(100)
	if got := over.Quantile(0.5); got != 4 {
		t.Errorf("overflow-bucket quantile = %v, want top bound 4", got)
	}
}
