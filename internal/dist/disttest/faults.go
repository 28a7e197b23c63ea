// Package disttest holds the test harness for the dist wire: a fault
// injector that wraps a worker (or shard) handler. Only tests import it, so
// the dist package ships no fault harness; it does not import dist, so dist's
// own in-package tests can use it.
package disttest

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FaultInjector wraps a worker handler with scriptable failures, so
// resilience tests can make a real httptest worker return 500s, hang past
// the client timeout, reset connections mid-request, emit truncated garbage,
// or answer with more bytes than any hop may read — without touching the
// worker implementation.
//
// Two scripting styles compose:
//
//   - Counted faults are consumed in a fixed order (down, then fail, then
//     hang, then reset, then corrupt, then oversize) one per request until
//     the scripted counts are exhausted, after which requests pass through.
//   - Probabilistic faults (Probabilistic) draw each request's fate from a
//     seeded RNG, so chaos runs see an irregular but reproducible fault mix.
//
// SetDown models a killed process: every request resets until SetDown(false)
// "restarts" it.
type FaultInjector struct {
	next http.Handler

	mu          sync.Mutex
	down        bool
	failNext    int
	hangNext    int
	hangFor     time.Duration
	resetNext   int
	corruptNext int
	oversize    int
	// oversizeLimit is the body cap an oversized answer exceeds by a byte.
	oversizeLimit int
	rng           *rand.Rand
	pFail         float64
	pReset        float64
	pCorrupt      float64
	injected      int
}

// NewFaultInjector wraps next with an injector that initially injects
// nothing.
func NewFaultInjector(next http.Handler) *FaultInjector {
	return &FaultInjector{next: next}
}

// FailNext makes the next n requests answer 500 Internal Server Error.
func (f *FaultInjector) FailNext(n int) {
	f.mu.Lock()
	f.failNext += n
	f.mu.Unlock()
}

// HangNext makes the next n requests sleep for d before answering —
// long enough past the client timeout to simulate a wedged worker.
func (f *FaultInjector) HangNext(n int, d time.Duration) {
	f.mu.Lock()
	f.hangNext += n
	f.hangFor = d
	f.mu.Unlock()
}

// ResetNext makes the next n requests abort mid-response, which the client
// observes as a connection reset / unexpected EOF.
func (f *FaultInjector) ResetNext(n int) {
	f.mu.Lock()
	f.resetNext += n
	f.mu.Unlock()
}

// CorruptNext makes the next n requests answer 200 OK with a truncated,
// malformed JSON body — the worker crashed mid-write, or a proxy mangled
// the response. Clients must treat the undecodable body as retryable and
// never surface it as an evaluation result.
func (f *FaultInjector) CorruptNext(n int) {
	f.mu.Lock()
	f.corruptNext += n
	f.mu.Unlock()
}

// OversizeNext makes the next n requests answer 200 OK with a well-formed
// JSON object one byte longer than limit (dist.MaxBodyBytes at the call
// sites). Every reader of a response must refuse it — an error, never a
// truncated body passed on as the answer.
func (f *FaultInjector) OversizeNext(n, limit int) {
	f.mu.Lock()
	f.oversize += n
	f.oversizeLimit = limit
	f.mu.Unlock()
}

// SetDown kills (true) or restarts (false) the worker at the HTTP layer:
// while down, every request aborts with a connection reset. The wrapped
// handler's state survives — pair SetDown with swapping in a fresh handler
// to model a restart that also lost its in-memory state.
func (f *FaultInjector) SetDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Probabilistic draws each subsequent request's fate from a seeded RNG:
// with probability pFail it answers 500, pReset it resets the connection,
// pCorrupt it emits a truncated body (checked in that order; the
// probabilities are independent coin flips, not a distribution). The same
// seed and request order reproduce the same fault sequence. Zero
// probabilities with any seed turn probabilistic faults off.
func (f *FaultInjector) Probabilistic(seed int64, pFail, pReset, pCorrupt float64) {
	f.mu.Lock()
	f.rng = rand.New(rand.NewSource(seed))
	f.pFail, f.pReset, f.pCorrupt = pFail, pReset, pCorrupt
	f.mu.Unlock()
}

// Injected returns how many faults have been injected so far.
func (f *FaultInjector) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// faultKind is the decision ServeHTTP makes under the injector lock.
type faultKind int

const (
	faultNone faultKind = iota
	faultFail
	faultHang
	faultReset
	faultCorrupt
	faultOversize
)

// decide consumes the next scripted or drawn fault. Callers must hold f.mu.
func (f *FaultInjector) decide() (faultKind, time.Duration) {
	switch {
	case f.down:
		// Not counted in injected: "down" is a state, not a scripted budget.
		return faultReset, 0
	case f.failNext > 0:
		f.failNext--
		f.injected++
		return faultFail, 0
	case f.hangNext > 0:
		f.hangNext--
		f.injected++
		return faultHang, f.hangFor
	case f.resetNext > 0:
		f.resetNext--
		f.injected++
		return faultReset, 0
	case f.corruptNext > 0:
		f.corruptNext--
		f.injected++
		return faultCorrupt, 0
	case f.oversize > 0:
		f.oversize--
		f.injected++
		return faultOversize, 0
	}
	if f.rng != nil {
		switch {
		case f.pFail > 0 && f.rng.Float64() < f.pFail:
			f.injected++
			return faultFail, 0
		case f.pReset > 0 && f.rng.Float64() < f.pReset:
			f.injected++
			return faultReset, 0
		case f.pCorrupt > 0 && f.rng.Float64() < f.pCorrupt:
			f.injected++
			return faultCorrupt, 0
		}
	}
	return faultNone, 0
}

// ServeHTTP injects the next scripted fault, or passes the request through.
func (f *FaultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	kind, hang := f.decide()
	limit := f.oversizeLimit
	f.mu.Unlock()
	switch kind {
	case faultFail:
		http.Error(w, "injected fault", http.StatusInternalServerError)
	case faultHang:
		//unicolint:allow detclock the fault injector hangs the handler on purpose to exercise client timeouts
		time.Sleep(hang)
		http.Error(w, "injected hang", http.StatusServiceUnavailable)
	case faultReset:
		// net/http translates this panic into an aborted connection, which
		// the client sees as a reset rather than a well-formed response.
		panic(http.ErrAbortHandler)
	case faultCorrupt:
		w.Header().Set("Content-Type", "application/json")
		// A syntactically broken prefix of a plausible response: decoding
		// must fail no matter which route's schema the client expects.
		_, _ = w.Write([]byte(`{"metrics":{"latency_ms":12.`))
	case faultOversize:
		w.Header().Set("Content-Type", "application/json")
		const head, tail = `{"pad":"`, `"}`
		_, _ = w.Write([]byte(head + strings.Repeat("a", limit+1-len(head)-len(tail)) + tail))
	default:
		f.next.ServeHTTP(w, r)
	}
}
