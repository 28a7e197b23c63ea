package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unico/internal/dist/disttest"
)

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in     string
		want   time.Duration
		wantOK bool
	}{
		{"3", 3 * time.Second, true},
		// Degenerate advertisements parse as advertised (ok=true) with a
		// zero delay: retryDelay clamps them up to the base backoff, so a
		// "retry now" hint never becomes a zero-sleep spin.
		{"0", 0, true},
		{"-5", 0, true},
		{"", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in)
		if got != c.want || ok != c.wantOK {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.wantOK)
		}
	}

	// Absolute HTTP-dates: a future date parses to roughly the remaining
	// delay, a past one to zero (retry immediately).
	future := time.Now().UTC().Add(10 * time.Second).Format(http.TimeFormat)
	if got, ok := parseRetryAfter(future); !ok || got <= 0 || got > 10*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, %v; want (0, 10s], true", got, ok)
	}
	past := time.Now().UTC().Add(-time.Hour).Format(http.TimeFormat)
	if got, ok := parseRetryAfter(past); !ok || got != 0 {
		t.Errorf("parseRetryAfter(past date) = %v, %v; want 0, true", got, ok)
	}
}

// TestRetryDelayClampsAdvertised: the delay actually slept after a shed is
// the advertised Retry-After clamped into [RetryBackoff, MaxBackoff];
// unadvertised sheds and non-shed failures fall back to exponential
// backoff with jitter.
func TestRetryDelayClampsAdvertised(t *testing.T) {
	c := NewClientOptions("http://unused", http.DefaultClient, Options{
		RetryBackoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	shed := func(d time.Duration, advertised bool) error {
		return &shedError{path: "/v1/ppa", status: "429", retryAfter: d, advertised: advertised}
	}
	cases := []struct {
		name    string
		backoff time.Duration
		err     error
		want    time.Duration // exact expected delay; 0 = jittered (range-checked)
	}{
		{"advertised zero clamps to base", 20 * time.Millisecond, shed(0, true), 20 * time.Millisecond},
		{"advertised negative-equivalent clamps to base", 80 * time.Millisecond, shed(0, true), 20 * time.Millisecond},
		{"advertised below base clamps up", 20 * time.Millisecond, shed(5*time.Millisecond, true), 20 * time.Millisecond},
		{"advertised in range honored", 20 * time.Millisecond, shed(60*time.Millisecond, true), 60 * time.Millisecond},
		{"advertised above max capped", 20 * time.Millisecond, shed(5*time.Second, true), 100 * time.Millisecond},
		{"unadvertised shed uses backoff", 40 * time.Millisecond, shed(0, false), 0},
		{"non-shed error uses backoff", 40 * time.Millisecond, retryable(errTest), 0},
	}
	for _, tc := range cases {
		got := c.retryDelay(tc.backoff, tc.err)
		if tc.want != 0 {
			if got != tc.want {
				t.Errorf("%s: retryDelay = %v, want %v", tc.name, got, tc.want)
			}
			continue
		}
		if got < tc.backoff/2 || got > tc.backoff {
			t.Errorf("%s: retryDelay = %v, want jittered in [%v, %v]", tc.name, got, tc.backoff/2, tc.backoff)
		}
	}
}

var errTest = fmt.Errorf("test failure")

// TestShedZeroRetryAfterDoesNotSpin: a server advertising "0" (or a past
// HTTP-date, which parses the same) must still buy one base backoff per
// retry — the pre-fix behavior was an immediate retry against an already
// overloaded server.
func TestShedZeroRetryAfterDoesNotSpin(t *testing.T) {
	base := 30 * time.Millisecond
	for _, retryAfter := range []string{"0", "-5", time.Now().UTC().Add(-time.Hour).Format(http.TimeFormat)} {
		c := newSheddingWorker(t, http.StatusTooManyRequests, retryAfter, Options{
			MaxRetries: 1, RetryBackoff: base, MaxBackoff: time.Second,
		})
		start := time.Now()
		resp, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("Retry-After %q: EvaluatePPA after one shed: %v", retryAfter, err)
		}
		if resp.Error != "" || !resp.Metrics.Valid() {
			t.Fatalf("Retry-After %q: response: %+v", retryAfter, resp)
		}
		if elapsed < base {
			t.Errorf("Retry-After %q: retried after %v; want at least the base backoff %v", retryAfter, elapsed, base)
		}
	}
}

// shedOnce wraps a handler, rejecting the first request to each listed path
// with the given status and Retry-After header.
type shedOnce struct {
	next       http.Handler
	status     int
	retryAfter string

	mu   sync.Mutex
	shed map[string]bool
}

func (s *shedOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	first := !s.shed[r.URL.Path]
	s.shed[r.URL.Path] = true
	s.mu.Unlock()
	if first {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		http.Error(w, "shedding", s.status)
		return
	}
	s.next.ServeHTTP(w, r)
}

func newSheddingWorker(t *testing.T, status int, retryAfter string, opts Options) *Client {
	t.Helper()
	shed := &shedOnce{next: NewServer().Handler(), status: status, retryAfter: retryAfter, shed: map[string]bool{}}
	srv := httptest.NewServer(shed)
	t.Cleanup(srv.Close)
	return NewClientOptions(srv.URL, srv.Client(), opts)
}

// TestClientHonorsRetryAfterCapped is the satellite-1 regression: a shed
// with a large Retry-After must delay the retry by MaxBackoff, not the full
// advertised 5 seconds and not the tiny exponential backoff either.
func TestClientHonorsRetryAfterCapped(t *testing.T) {
	c := newSheddingWorker(t, http.StatusTooManyRequests, "5", Options{
		MaxRetries: 1, RetryBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	start := time.Now()
	resp, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("EvaluatePPA after one 429: %v", err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
	if elapsed < 40*time.Millisecond {
		t.Errorf("retried after %v; Retry-After hint was not honored (exponential backoff alone would be ~1ms)", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("retried after %v; MaxBackoff did not cap the 5s Retry-After hint", elapsed)
	}
}

// TestCorruptResponseRetried: a 200 with a truncated body must be retried
// like a transport failure, never surfaced as an evaluation result.
func TestCorruptResponseRetried(t *testing.T) {
	inj, c := newFaultyWorker(t, Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
	inj.CorruptNext(1)
	resp, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest())
	if err != nil {
		t.Fatalf("EvaluatePPA after one corrupt body: %v", err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected %d faults, want 1", inj.Injected())
	}
}

// TestProbabilisticFaultsReproducible: the same seed and request order must
// inject the same fault sequence — chaos runs are irregular, never flaky.
func TestProbabilisticFaultsReproducible(t *testing.T) {
	sequence := func() []int {
		inj := disttest.NewFaultInjector(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
		inj.Probabilistic(42, 0.3, 0, 0) // only 500s: no panics, no hangs
		var codes []int
		for i := 0; i < 64; i++ {
			rec := httptest.NewRecorder()
			inj.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			codes = append(codes, rec.Code)
		}
		if inj.Injected() == 0 || inj.Injected() == 64 {
			t.Fatalf("injected %d of 64: probabilities not applied", inj.Injected())
		}
		return codes
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at request %d: %v vs %v", i, a, b)
		}
	}
}

// TestWorkerDrain is the worker half of satellite 3: a draining worker
// reports itself, refuses new work with 503 + Retry-After, and still
// finishes jobs it already holds.
func TestWorkerDrain(t *testing.T) {
	srv, c := newWorker(t)

	// A job the worker holds before the drain.
	held := AdvanceRequest{Spec: testSpec(1), Budget: 1}
	if _, err := c.AdvanceJobContext(context.Background(), held); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Post(srv.URL+"/v1/drain", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if h, err := c.HealthContext(context.Background()); err != nil || h.Status != StatusDraining || h.Jobs != 1 {
		t.Fatalf("health after drain = %+v, %v; want draining with 1 job", h, err)
	}
	if c.HealthyContext(context.Background()) {
		t.Error("Healthy() true for a draining worker; routers would keep sending it new work")
	}

	// New work — a job it does not hold, an evaluation — is refused with a
	// shed the client can wait out, and leaves nothing behind.
	body, err := json.Marshal(AdvanceRequest{Spec: testSpec(2), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := srv.Client().Post(srv.URL+"/v1/jobs/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("advance of an unheld job on a draining worker = %d, want 503", raw.StatusCode)
	}
	if raw.Header.Get("Retry-After") == "" {
		t.Error("draining refusal carries no Retry-After header")
	}
	if h, _ := c.HealthContext(context.Background()); h.Jobs != 1 {
		t.Errorf("draining worker holds %d jobs after refusing one, want 1", h.Jobs)
	}
	if _, err := c.EvaluatePPAContext(context.Background(), spatialPPARequest()); err == nil {
		t.Fatal("EvaluatePPA succeeded on a draining worker with no retry budget")
	}

	// The job held before the drain still advances to completion.
	held.Budget, held.Seen = 3, 1
	state, err := c.AdvanceJobContext(context.Background(), held)
	if err != nil {
		t.Fatalf("AdvanceJob on draining worker: %v", err)
	}
	if state.Spent != 3 {
		t.Errorf("spent %d, want 3", state.Spent)
	}

	resp, err = srv.Client().Post(srv.URL+"/v1/undrain", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !c.HealthyContext(context.Background()) {
		t.Error("Healthy() false after undrain")
	}
}
