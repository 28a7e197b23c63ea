package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"unico/internal/disttrace"
	"unico/internal/evalcache"
	"unico/internal/perfprof"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Defaults for client resilience knobs (see Options).
const (
	// DefaultTimeout bounds every worker request when no *http.Client is
	// supplied. Without it a single dead worker (accepted TCP connection,
	// never answering) stalls the master's co-search forever.
	DefaultTimeout = 30 * time.Second
	// DefaultRetryBackoff is the first retry delay; each retry doubles it.
	DefaultRetryBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the exponential retry delay.
	DefaultMaxBackoff = 2 * time.Second
)

// Options tunes a Client's resilience behavior. The zero value means:
// DefaultTimeout, no retries.
type Options struct {
	// Timeout bounds each request when NewClientOptions builds the transport
	// itself (ignored when an explicit *http.Client is passed).
	// <= 0 means DefaultTimeout.
	Timeout time.Duration
	// MaxRetries is how many times a request is retried after a retryable
	// failure — 5xx status, transport error, truncated response, or a load
	// shed (429/503 with Retry-After, which waits out the advertised delay
	// capped by MaxBackoff). Every route is idempotent — an evaluation is a
	// pure function of its triple, a job of its spec and cumulative budget —
	// so a retry after an ambiguous failure changes no result.
	MaxRetries int
	// RetryBackoff is the initial retry delay (doubling per retry, with
	// jitter). <= 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// MaxBackoff caps the delay between retries. <= 0 means DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// Client talks to one worker node.
type Client struct {
	base string
	hc   *http.Client
	opts Options
}

// NewClient builds a client for the worker at base (e.g.
// "http://worker-1:8080"). A nil httpClient gets a transport bounded by
// DefaultTimeout — never the timeout-less http.DefaultClient, which would
// hang forever on a dead worker. Pass an explicit *http.Client (or use
// NewClientOptions) to override the timeout.
func NewClient(base string, httpClient *http.Client) *Client {
	return NewClientOptions(base, httpClient, Options{})
}

// NewClientOptions builds a client with explicit resilience options. A nil
// httpClient gets a transport bounded by opts.Timeout (DefaultTimeout when
// unset); a non-nil one is used as-is and owns its own timeout.
func NewClientOptions(base string, httpClient *http.Client, opts Options) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: opts.Timeout}
	}
	return &Client{base: base, hc: httpClient, opts: opts}
}

// retryableError marks a failure that is worthwhile to retry: the request
// may never have reached the worker (transport error), the worker declared
// itself broken (5xx), or the response was cut off mid-body (decode error).
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryable(err error) error { return &retryableError{err: err} }

func isRetryable(err error) bool {
	var r *retryableError
	return errors.As(err, &r)
}

// shedError is a load-shed response: 429 Too Many Requests or
// 503 Service Unavailable, rejected by the fleet router or a draining
// worker before any processing happened. retryAfter carries the server's
// advertised backoff and advertised whether the header parsed at all; the
// client clamps an advertised delay into [RetryBackoff, MaxBackoff] (see
// retryDelay), so a zero, negative, or past-dated advertisement cannot turn
// the retry loop into a zero-sleep spin.
type shedError struct {
	path       string
	status     string
	retryAfter time.Duration
	advertised bool
}

func (e *shedError) Error() string {
	return fmt.Sprintf("dist: %s: shed with %s (retry after %v)", e.path, e.status, e.retryAfter)
}

// parseRetryAfter parses a Retry-After header value: delay seconds
// (RFC 9110 §10.2.3) or an absolute HTTP-date. ok is false only on absent
// or malformed values. Degenerate-but-parseable advertisements — zero or
// negative seconds, HTTP-dates in the past — return (0, true): the server
// did answer, and retryDelay clamps the zero up to the base backoff rather
// than retrying in a hot loop against an already-overloaded server.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t) //unicolint:allow detclock absolute Retry-After dates are defined against the real clock
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// retryDelay picks the wait before the next retry: jittered exponential
// backoff by default, or — when the shed advertised a parseable
// Retry-After — the advertised delay clamped into
// [RetryBackoff, MaxBackoff]. The lower clamp is load-bearing: a server
// advertising "0", a negative value, or a stale HTTP-date must still buy
// itself at least one base backoff of breathing room.
func (c *Client) retryDelay(backoff time.Duration, err error) time.Duration {
	jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)) //unicolint:allow detclock retry-backoff jitter; search spend is counted in evaluations, not wall time
	var shed *shedError
	if !errors.As(err, &shed) || !shed.advertised {
		return jittered
	}
	d := shed.retryAfter
	if d < c.opts.RetryBackoff {
		d = c.opts.RetryBackoff
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	return d
}

// Reply is what one Exchange brought back: status and headers as the peer
// sent them, the whole body, and the wall seconds of the round trip — request
// out to body read — on perfprof's clock (set on a failed exchange too, so a
// latency histogram sees the time to failure).
type Reply struct {
	Status  int
	Header  http.Header
	Body    []byte
	Seconds float64
}

// roundTrip is the one place this module makes an HTTP exchange: it builds
// the request, stamps the run ID and the trace parent ctx carries (so the
// receiving hop's log lines, fair queue and spans attribute it to the exact
// co-search that issued it), sends it, and hands the response to read with
// its body behind the MaxBodyBytes cap — a longer body is a read error, never
// a truncation. The seconds it returns are the "dist.transport" phase it
// records. A request that got no answer is retryable unless ctx ended, since
// it may never have reached the peer; what an answer means is read's call.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, read func(resp *http.Response, body io.Reader) error) (seconds float64, err error) {
	_, span := perfprof.Start(ctx, "dist.transport")
	defer func() { seconds = span.End() }() // whatever the returns below say
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("dist: build request %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := runid.From(ctx); id != "" {
		req.Header.Set(runid.Header, id)
	}
	disttrace.Inject(req.Header, disttrace.Parent(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Deliberate cancellation is never retryable.
			return 0, fmt.Errorf("dist: %s %s: %w", method, path, ctx.Err())
		}
		return 0, retryable(fmt.Errorf("dist: %s %s: %w", method, path, err))
	}
	defer resp.Body.Close()
	return 0, read(resp, http.MaxBytesReader(nil, resp.Body, MaxBodyBytes))
}

// Exchange makes one round trip to the peer — any /v1 route, or /metrics —
// and returns the answer unjudged: the fleet router relays it, probes and
// scrapes interpret the status themselves. An error means there is no usable
// answer (transport failure, ctx ended, or a body past MaxBodyBytes).
func (c *Client) Exchange(ctx context.Context, method, path string, body []byte) (Reply, error) {
	var rep Reply
	var err error
	rep.Seconds, err = c.roundTrip(ctx, method, path, body, func(resp *http.Response, body io.Reader) error {
		rep.Status, rep.Header = resp.StatusCode, resp.Header
		var err error
		if rep.Body, err = io.ReadAll(body); err != nil {
			return retryable(fmt.Errorf("dist: read %s %s: %w", method, path, err))
		}
		return nil
	})
	return rep, err
}

// do makes one exchange and decodes the JSON answer into resp, classifying
// failures as retryable or not. 4xx responses carry a JSON error body the
// caller inspects, so they decode normally and are never retried.
func (c *Client) do(ctx context.Context, method, path string, body []byte, resp any) (float64, error) {
	return c.roundTrip(ctx, method, path, body, func(r *http.Response, body io.Reader) error {
		if r.StatusCode == http.StatusTooManyRequests || r.StatusCode == http.StatusServiceUnavailable {
			// Load shed (fleet router queue-full, draining worker): honor the
			// advertised Retry-After instead of treating it as a generic failure.
			delay, ok := parseRetryAfter(r.Header.Get("Retry-After"))
			return retryable(&shedError{path: path, status: r.Status, retryAfter: delay, advertised: ok})
		}
		if r.StatusCode >= 500 {
			return retryable(fmt.Errorf("dist: %s %s: worker returned %s", method, path, r.Status))
		}
		if err := json.NewDecoder(body).Decode(resp); err != nil {
			return retryable(fmt.Errorf("dist: decode %s: %w", path, err))
		}
		return nil
	})
}

// send is the one request path: req (nil for a bodiless DELETE) goes out as
// JSON, the response decodes into resp, and every retryable failure
// (transport errors, 5xx, truncated or oversized responses, sheds) is retried
// up to MaxRetries times. The delay between attempts is exponential with
// jitter, so a pool of masters does not hammer a recovering worker in
// lockstep — except after a load shed that advertised Retry-After: then the
// advertised delay is honored clamped into [RetryBackoff, MaxBackoff], so a
// misbehaving server can neither park the client for minutes nor spin it
// (see retryDelay). Cancelling ctx aborts both in-flight requests and
// backoff sleeps. route names the call in spans: path with any job key
// folded to {id}. seconds sums the attempts' round trips, waits left out.
//
// When tracing is enabled the whole logical call is one "client" span in
// ctx's run's trace, under the span ctx runs in (the co-search iteration);
// each HTTP try is an "attempt" child (whose context is what propagates to
// the server), and each retry wait a "backoff" child.
func (c *Client) send(ctx context.Context, method, route, path string, req, resp any) (seconds float64, err error) {
	var body []byte
	if req != nil {
		_, ser := perfprof.Start(ctx, "dist.serialize")
		body, err = json.Marshal(req)
		ser.End()
		if err != nil {
			return 0, fmt.Errorf("dist: marshal %s: %w", route, err)
		}
	}
	span := disttrace.StartSpan(runid.From(ctx), disttrace.Parent(ctx), "client", route)
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		att := disttrace.StartSpan("", span.Context(), "attempt", route)
		took, err := c.do(disttrace.WithParent(ctx, att.Context()), method, path, body, resp)
		seconds += took
		att.End(spanStatus(err), nil)
		if err == nil || attempt >= c.opts.MaxRetries || !isRetryable(err) {
			span.End(spanStatus(err), map[string]string{"attempts": strconv.Itoa(attempt + 1)})
			return seconds, err
		}
		telemetry.DistRetries().Inc()
		delay := c.retryDelay(backoff, err)
		wait := perfprof.NewTimer()
		bo := disttrace.StartSpan("", span.Context(), "backoff", route)
		timer := time.NewTimer(delay) //unicolint:allow detclock retry backoff waits real time between attempts; results stay deterministic
		select {
		case <-ctx.Done():
			timer.Stop()
			wait.ObserveVolatileAs("dist.retry_wait")
			bo.End("canceled", nil)
			span.End("canceled", nil)
			return seconds, fmt.Errorf("dist: %s %s: %w", method, route, ctx.Err())
		case <-timer.C:
		}
		bo.End("ok", nil)
		wait.ObserveVolatileAs("dist.retry_wait")
		if backoff *= 2; backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

// spanStatus maps a client-side error to a span status label.
func spanStatus(err error) string {
	if err == nil {
		return "ok"
	}
	var shed *shedError
	if errors.As(err, &shed) {
		return "shed"
	}
	if isRetryable(err) {
		return "retryable"
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	return "error"
}

// evalSeconds times every remote evaluation's round trips, retries included
// (the waits between them are dist.retry_wait's).
var evalSeconds = telemetry.PPAEvalSeconds("dist")

// EvaluatePPAContext evaluates one (hardware, mapping, layer) triple
// remotely. The route is a pure function of the request, so it retries on
// retryable failures. The returned error covers transport only; evaluation
// failures arrive in PPAResponse.Error. Cancelling ctx aborts in-flight
// requests and retry backoffs.
func (c *Client) EvaluatePPAContext(ctx context.Context, req PPARequest) (PPAResponse, error) {
	var resp PPAResponse
	seconds, err := c.send(ctx, http.MethodPost, "/v1/ppa", "/v1/ppa", req, &resp)
	evalSeconds.Observe(seconds)
	if err != nil {
		return PPAResponse{}, err
	}
	return resp, nil
}

// CanonicalEvalKey returns the content address of a PPA request: the SHA-256
// of its canonicalized triple, the coordinate the fleet router
// consistent-hashes on, so repeats of a triple land on one shard. ok is
// false for malformed requests, which the worker reports as errors.
func CanonicalEvalKey(req *PPARequest) (key evalcache.Key, ok bool) {
	switch req.Platform {
	case "spatial":
		if req.SpatialHW == nil || req.SpatialMapping == nil {
			return evalcache.Key{}, false
		}
		m := req.SpatialMapping.Canon(req.Layer)
		return evalcache.SpatialKey(*req.SpatialHW, m, req.Layer), true
	case "ascend":
		if req.AscendHW == nil || req.AscendMapping == nil {
			return evalcache.Key{}, false
		}
		m := req.AscendMapping.Canon(req.Layer)
		return evalcache.AscendKey(*req.AscendHW, m, req.Layer), true
	}
	return evalcache.Key{}, false
}

// AdvanceJobContext brings the job req.Spec describes to the cumulative
// req.Budget on the worker and returns its state there (a Budget the job
// has already reached just polls). The worker builds the job if it does not
// hold it, so there is nothing to create first and nothing a retry can
// spend twice.
func (c *Client) AdvanceJobContext(ctx context.Context, req AdvanceRequest) (JobState, error) {
	var state JobState
	if _, err := c.send(ctx, http.MethodPost, "/v1/jobs/advance", "/v1/jobs/advance", req, &state); err != nil {
		return JobState{}, err
	}
	if state.Error != "" {
		return JobState{}, fmt.Errorf("dist: advance job: %s", state.Error)
	}
	return state, nil
}

// DeleteJobContext releases the state the worker holds for the job whose
// JobSpec.Key is id. Releasing a job the worker does not hold is an error
// (the worker's 404), which is also what a delete sent again after a lost
// answer reports.
func (c *Client) DeleteJobContext(ctx context.Context, id string) error {
	var resp JobDeleteResponse
	if _, err := c.send(ctx, http.MethodDelete, "/v1/jobs/{id}", "/v1/jobs/"+id, nil, &resp); err != nil {
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("dist: delete job %s: %s", id, resp.Error)
	}
	return nil
}

// HealthyContext reports whether the worker answers its health endpoint and
// is accepting new work (a draining worker answers but reports "draining",
// and must not be handed new jobs).
func (c *Client) HealthyContext(ctx context.Context) bool {
	h, err := c.HealthContext(ctx)
	return err == nil && h.Status == StatusOK
}

// HealthContext fetches the worker's health status. Cancelling ctx aborts
// the probe — health checks against a wedged worker must not outlive the
// prober's own deadline.
func (c *Client) HealthContext(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	rep, err := c.Exchange(ctx, http.MethodGet, "/v1/healthz", nil)
	if err == nil && rep.Status != http.StatusOK {
		err = fmt.Errorf("answered %d", rep.Status)
	}
	if err == nil {
		err = json.Unmarshal(rep.Body, &h)
	}
	if err != nil {
		return HealthResponse{}, fmt.Errorf("dist: health %s: %w", c.base, err)
	}
	return h, nil
}
