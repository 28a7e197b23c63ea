package telemetry

import (
	"context"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// statusRecorder captures the response status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// codeClass folds a status code into its Prometheus-friendly class
// ("2xx", "4xx", ...).
func codeClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// InstrumentHandler wraps h with per-route HTTP server metrics in reg:
//
//	unico_http_requests_total{route,method,code}   request counter
//	unico_http_request_seconds_*{route}            latency histogram
//	unico_http_inflight                            in-flight gauge
//
// route normalizes a request to its route label (so path parameters do not
// explode cardinality); nil uses the raw URL path.
func InstrumentHandler(reg *Registry, route func(*http.Request) string, h http.Handler) http.Handler {
	if reg == nil {
		reg = DefaultRegistry
	}
	if route == nil {
		route = func(r *http.Request) string { return r.URL.Path }
	}
	inflight := reg.Gauge("unico_http_inflight",
		"HTTP requests currently being served.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := route(r)
		inflight.Inc()
		defer inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now() //unicolint:allow detclock HTTP request-latency metric is wall time by definition
		h.ServeHTTP(rec, r)
		elapsed := time.Since(start).Seconds() //unicolint:allow detclock HTTP request-latency metric is wall time by definition
		reg.Counter("unico_http_requests_total", "HTTP requests by route, method and status class.",
			Labels{"route": rt, "method": r.Method, "code": codeClass(rec.code)}).Inc()
		reg.Histogram("unico_http_request_seconds", "HTTP request latency by route.",
			nil, Labels{"route": rt}).Observe(elapsed)
	})
}

// DebugMux returns a mux exposing the standard observability endpoints:
//
//	GET /metrics       Prometheus text format (DefaultRegistry)
//	GET /debug/pprof/  runtime profiles
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", DefaultRegistry.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is the sidecar observability listener of the CLIs'
// -metrics-addr flag, with an owned lifecycle — start it, then Shutdown
// (graceful) or Close (immediate) from the signal path.
type DebugServer struct {
	srv *http.Server
}

// NewDebugServer builds a debug server serving h on addr without starting
// it.
func NewDebugServer(addr string, h http.Handler) *DebugServer {
	return &DebugServer{
		srv: &http.Server{
			Addr:              addr,
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
	}
}

// Start begins serving in the background. Listener errors are reported
// through errf (may be nil) rather than failing the main program.
func (d *DebugServer) Start(errf func(error)) {
	go func() {
		if err := d.srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && errf != nil {
			errf(err)
		}
	}()
}

// Shutdown drains in-flight requests until ctx expires, then closes.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	return d.srv.Shutdown(ctx)
}

// Close stops the listener immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }
