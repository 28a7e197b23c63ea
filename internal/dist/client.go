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

// Bytes every exchange of this process moves, counted once, in roundTrip.
var (
	bytesSent     = telemetry.DistBytesSent()
	bytesReceived = telemetry.DistBytesReceived()
)

// roundTrip is the one place this module makes an HTTP exchange: it builds
// the request, stamps the run ID and the trace parent ctx carries (so the
// receiving hop's log lines, fair queue and spans attribute it to the exact
// co-search that issued it), sends it, reads the whole answer through the
// MaxBodyBytes cap — a longer body is a read error, never a truncation — and
// hands it to read. The seconds it returns are the "dist.transport" phase it
// records; the request body and the response bytes read are counted in
// unico_dist_bytes_{sent,received}_total. A request that got no answer, or
// only part of one, is retryable unless ctx ended, since it may never have
// reached the peer; what an answer means is read's call.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, read func(resp *http.Response, body []byte) error) (seconds float64, err error) {
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
	bytesSent.Add(uint64(len(body)))
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Deliberate cancellation is never retryable.
			return 0, fmt.Errorf("dist: %s %s: %w", method, path, ctx.Err())
		}
		return 0, retryable(fmt.Errorf("dist: %s %s: %w", method, path, err))
	}
	defer resp.Body.Close()
	answer, err := readBody(http.MaxBytesReader(nil, resp.Body, MaxBodyBytes), resp.ContentLength)
	bytesReceived.Add(uint64(len(answer)))
	if err != nil {
		return 0, retryable(fmt.Errorf("dist: read %s %s: %w", method, path, err))
	}
	return 0, read(resp, answer)
}

// readBody reads r whole, into one allocation when the peer said how long
// the body is.
func readBody(r io.Reader, length int64) ([]byte, error) {
	var buf bytes.Buffer
	if length > 0 && length <= MaxBodyBytes {
		buf.Grow(int(length) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Exchange makes one round trip to the peer — any /v1 route — and returns
// the answer unjudged: the fleet router relays it, probes interpret the
// status themselves. An error means there is no usable
// answer (transport failure, ctx ended, or a body past MaxBodyBytes).
func (c *Client) Exchange(ctx context.Context, method, path string, body []byte) (Reply, error) {
	var rep Reply
	var err error
	rep.Seconds, err = c.roundTrip(ctx, method, path, body, func(resp *http.Response, body []byte) error {
		rep.Status, rep.Header, rep.Body = resp.StatusCode, resp.Header, body
		return nil
	})
	return rep, err
}

// do makes one POST exchange and hands the answer's status and body to decode,
// classifying failures as retryable or not: a decode error — a body cut
// off, or one the caller finds unusable — is retryable. 4xx responses carry
// a JSON error body the caller inspects, so they decode normally and are
// never retried.
func (c *Client) do(ctx context.Context, path string, body []byte, decode func(status int, body []byte) error) (float64, error) {
	return c.roundTrip(ctx, http.MethodPost, path, body, func(r *http.Response, body []byte) error {
		if r.StatusCode == http.StatusTooManyRequests || r.StatusCode == http.StatusServiceUnavailable {
			// Load shed (fleet router queue-full, draining worker): honor the
			// advertised Retry-After instead of treating it as a generic failure.
			delay, ok := parseRetryAfter(r.Header.Get("Retry-After"))
			return retryable(&shedError{path: path, status: r.Status, retryAfter: delay, advertised: ok})
		}
		if r.StatusCode >= 500 {
			return retryable(fmt.Errorf("dist: POST %s: worker returned %s", path, r.Status))
		}
		if err := decode(r.StatusCode, body); err != nil {
			return retryable(fmt.Errorf("dist: decode %s: %w", path, err))
		}
		return nil
	})
}

// decodeInto is the decode of a plain JSON answer, into *v zeroed first, so
// nothing an attempt that failed decoded survives into the next.
func decodeInto[T any](v *T) func(int, []byte) error {
	return func(_ int, body []byte) error {
		var zero T
		*v = zero
		return json.Unmarshal(body, v)
	}
}

// send is the one request path: req is POSTed as JSON, the response's status
// and body go to decode, and every retryable failure (transport errors, 5xx,
// truncated, oversized or unusable responses, sheds) is retried up to
// MaxRetries times. The delay between attempts is exponential with jitter,
// so a pool of masters does not hammer a recovering worker in lockstep —
// except after a load shed that advertised Retry-After: then the advertised
// delay is honored clamped into [RetryBackoff, MaxBackoff], so a misbehaving
// server can neither park the client for minutes nor spin it (see
// retryDelay). Cancelling ctx aborts both in-flight requests and backoff
// sleeps. path names the call in spans. seconds sums the attempts' round
// trips, waits left out.
//
// When tracing is enabled the whole logical call is one "client" span in
// ctx's run's trace, under the span ctx runs in (the co-search iteration);
// each HTTP try is an "attempt" child (whose context is what propagates to
// the server), and each retry wait a "backoff" child.
func (c *Client) send(ctx context.Context, path string, req any, decode func(int, []byte) error) (seconds float64, err error) {
	_, ser := perfprof.Start(ctx, "dist.serialize")
	body, err := json.Marshal(req)
	ser.End()
	if err != nil {
		return 0, fmt.Errorf("dist: marshal %s: %w", path, err)
	}
	span := disttrace.StartSpan(runid.From(ctx), disttrace.Parent(ctx), "client", path)
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		att := disttrace.StartSpan("", span.Context(), "attempt", path)
		took, err := c.do(disttrace.WithParent(ctx, att.Context()), path, body, decode)
		seconds += took
		att.End(spanStatus(err), nil)
		if err == nil || attempt >= c.opts.MaxRetries || !isRetryable(err) {
			span.End(spanStatus(err), map[string]string{"attempts": strconv.Itoa(attempt + 1)})
			return seconds, err
		}
		telemetry.DistRetries().Inc()
		delay := c.retryDelay(backoff, err)
		wait := perfprof.NewTimer()
		bo := disttrace.StartSpan("", span.Context(), "backoff", path)
		timer := time.NewTimer(delay) //unicolint:allow detclock retry backoff waits real time between attempts; results stay deterministic
		select {
		case <-ctx.Done():
			timer.Stop()
			wait.ObserveAs("dist.retry_wait")
			bo.End("canceled", nil)
			span.End("canceled", nil)
			return seconds, fmt.Errorf("dist: POST %s: %w", path, ctx.Err())
		case <-timer.C:
		}
		bo.End("ok", nil)
		wait.ObserveAs("dist.retry_wait")
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
	seconds, err := c.send(ctx, "/v1/ppa", req, decodeInto(&resp))
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
// req.Budget on the worker and returns its state there, carrying the points
// after req.Seen (a Budget the job has already reached just polls). The
// worker builds the job if it does not hold it, so there is nothing to
// create first and nothing a retry can spend twice. A 200 answer is the
// byte layout of answer.go; one that does not carry exactly the points
// asked for is retried like a truncated one. Any other answer is a JSON
// error.
func (c *Client) AdvanceJobContext(ctx context.Context, req AdvanceRequest) (JobState, error) {
	var state JobState
	var refused errorAnswer
	_, err := c.send(ctx, "/v1/jobs/advance", req, func(status int, body []byte) error {
		var err error
		state, refused = JobState{}, errorAnswer{}
		if status != http.StatusOK {
			if err = json.Unmarshal(body, &refused); err == nil && refused.Error == "" {
				err = fmt.Errorf("answered %d with no error", status)
			}
			return err
		}
		state, err = decodeAnswer(body, req)
		return err
	})
	if err != nil {
		return JobState{}, err
	}
	if refused.Error != "" {
		return JobState{}, fmt.Errorf("dist: advance job: %s", refused.Error)
	}
	return state, nil
}

// errorAnswer is the JSON body of a rejected request.
type errorAnswer struct {
	Error string `json:"error"`
}

// ReleaseJobsContext releases the jobs whose JobSpec.Key are ids: the
// worker drops whichever of them it holds, and a router passes the batch to
// every shard that is not down. Naming a job nobody holds is no error, so
// the batch can be sent again after a lost answer.
func (c *Client) ReleaseJobsContext(ctx context.Context, ids []string) error {
	var resp ReleaseResponse
	if _, err := c.send(ctx, "/v1/jobs/release", ReleaseRequest{IDs: ids}, decodeInto(&resp)); err != nil {
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("dist: release jobs: %s", resp.Error)
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
