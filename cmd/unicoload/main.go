// Command unicoload drives open-loop PPA-evaluation traffic at a ppaserver
// worker or fleet router and reports goodput, shed rate, and latency
// percentiles per offered rate — the tool that proves the fleet sheds load
// under overload instead of queueing unboundedly.
//
// Open loop means arrivals fire on a fixed clock no matter how slow the
// responses are, like independent co-search masters would: a server that
// falls behind faces a growing backlog, not a politely self-throttling
// client. That is exactly the regime where admission control must kick in.
//
// Usage:
//
//	unicoload -target http://localhost:8080 -rates 50,200,800 -duration 10s
//
// The request pool is generated from -seed, so two invocations offer the
// identical workload. Each sweep step prints one report line; with -slo-p99
// and -slo-goodput set, any step violating either fails the process, so CI
// can gate on "shedding keeps the served requests fast".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unico/internal/cliflags"
	"unico/internal/dist"
	"unico/internal/disttrace"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// latencyBuckets spans sub-millisecond evaluations to multi-second overload
// queueing.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

func main() {
	target := flag.String("target", "", "base URL of the ppaserver worker or fleet router (required)")
	rates := flag.String("rates", "50", "comma-separated offered rates to sweep, requests/second")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer each rate")
	runs := flag.Int("runs", 4, "distinct synthetic run IDs issuing traffic (exercises per-client fair queuing)")
	pool := flag.Int("pool", 64, "distinct requests in the generated pool (smaller = fewer distinct eval keys, so a more skewed shard load)")
	seed := flag.Int64("seed", 1, "request-pool and arrival-jitter seed (same seed = identical offered workload)")
	timeout := flag.Duration("timeout", dist.DefaultTimeout, "per-request timeout")
	sloP99 := flag.Duration("slo-p99", 0, "fail if served-request p99 latency exceeds this at any rate (0 = off)")
	sloGoodput := flag.Float64("slo-goodput", 0, "fail if served/offered falls below this fraction at any rate after subtracting sheds (0 = off)")
	shared := cliflags.Register(flag.CommandLine, cliflags.SpanLog)
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "unicoload: -target is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := shared.Start(ctx, "loadgen"); err != nil {
		fmt.Fprintln(os.Stderr, "unicoload:", err)
		os.Exit(2)
	}
	defer shared.Close()
	var rateList []float64
	for _, f := range strings.Split(*rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "unicoload: bad rate %q\n", f)
			os.Exit(2)
		}
		rateList = append(rateList, v)
	}

	reqs := requestPool(*seed, *pool)
	client := dist.NewClientOptions(*target, nil, dist.Options{Timeout: *timeout})

	fmt.Printf("target=%s pool=%d runs=%d duration=%s seed=%d\n",
		*target, len(reqs), *runs, *duration, *seed)
	fmt.Println("rate_rps offered served shed errors goodput p50_ms p95_ms p99_ms")

	violations := 0
	var lastGoodput float64
	monotone := true
	for i, rate := range rateList {
		if ctx.Err() != nil {
			break
		}
		rep := offer(ctx, client, reqs, rate, *duration, *runs, *seed+int64(i))
		fmt.Printf("%8.0f %7d %6d %4d %6d %7.3f %6.1f %6.1f %6.1f\n",
			rate, rep.offered, rep.served, rep.shed, rep.errors, rep.goodput(),
			rep.p(0.50)*1000, rep.p(0.95)*1000, rep.p(0.99)*1000)
		if *sloP99 > 0 && rep.served > 0 && rep.p(0.99) > sloP99.Seconds() {
			fmt.Fprintf(os.Stderr, "unicoload: SLO violation at %.0f rps: p99 %.1f ms > %s\n",
				rate, rep.p(0.99)*1000, *sloP99)
			violations++
		}
		if *sloGoodput > 0 && rep.goodput() < *sloGoodput {
			fmt.Fprintf(os.Stderr, "unicoload: SLO violation at %.0f rps: goodput %.3f < %.3f\n",
				rate, rep.goodput(), *sloGoodput)
			violations++
		}
		if i > 0 && float64(rep.served) < lastGoodput*0.5 {
			monotone = false
		}
		lastGoodput = float64(rep.served)
	}
	if !monotone {
		fmt.Fprintln(os.Stderr, "unicoload: served throughput collapsed under overload (goodput not monotone) — admission control is not shedding")
		violations++
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// report accumulates one sweep step's outcome in a private telemetry
// registry, so latency percentiles come from the same histogram
// implementation the servers export.
type report struct {
	offered, served, shed, errors int64
	latency                       *telemetry.Histogram
}

// goodput is the fraction of offered requests that were served; sheds are
// explicit rejections, so they count against goodput but not as errors.
func (r *report) goodput() float64 {
	if r.offered == 0 {
		return 0
	}
	return float64(r.served) / float64(r.offered)
}

func (r *report) p(q float64) float64 { return r.latency.Quantile(q) }

// offer fires requests at the target on a fixed open-loop clock for the
// given duration and collects the outcomes.
func offer(ctx context.Context, client *dist.Client, reqs [][]byte, rate float64, d time.Duration, runs int, seed int64) *report {
	reg := telemetry.NewRegistry()
	rep := &report{
		latency: reg.Histogram("unico_loadgen_request_seconds",
			"Latency of served load-generator requests.", latencyBuckets, nil),
	}
	var offered, served, shed, errs atomic.Int64
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / rate)
	//unicolint:allow detclock a load generator's open-loop arrival clock is real time by definition
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	//unicolint:allow detclock a load generator's open-loop arrival clock is real time by definition
	tick := time.NewTicker(interval)
	defer tick.Stop()

	var wg sync.WaitGroup
	n := 0
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-tick.C:
			body := reqs[rng.Intn(len(reqs))]
			run := fmt.Sprintf("load-%d", n%runs)
			n++
			offered.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				answer, err := fire(ctx, client, body, run)
				switch status := answer.Status; {
				case err != nil:
					errs.Add(1)
				case status == http.StatusOK:
					served.Add(1)
					rep.latency.Observe(answer.Seconds)
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	rep.offered, rep.served, rep.shed, rep.errors =
		offered.Load(), served.Load(), shed.Load(), errs.Load()
	return rep
}

// fire issues one PPA evaluation under the synthetic run's ID. With tracing
// on, each request is a root "client" span in that run's trace, so a load
// sweep's span log shows router queue/forward time per request.
func fire(ctx context.Context, client *dist.Client, body []byte, run string) (dist.Reply, error) {
	span := disttrace.StartSpan(run, disttrace.SpanContext{}, "client", "/v1/ppa")
	ctx = disttrace.WithParent(runid.With(ctx, run), span.Context())
	rep, err := client.Exchange(ctx, http.MethodPost, "/v1/ppa", body)
	switch {
	case err != nil:
		span.End("error", nil)
	case rep.Status == http.StatusOK:
		span.End("ok", nil)
	default:
		span.End("shed", map[string]string{"status": strconv.Itoa(rep.Status)})
	}
	return rep, err
}

// requestPool generates n distinct, valid spatial PPA requests from the
// seed: varied hardware points and layer shapes over the same canonical
// encoding the router hashes on, so repeated picks land on the same shard
// the way a real co-search's re-evaluations do.
func requestPool(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pes := []int{2, 4, 8, 16}
	out := make([][]byte, 0, n)
	seen := map[string]bool{}
	for len(out) < n {
		l := workload.Conv(
			fmt.Sprintf("load-c%d", len(out)),
			8*(1+rng.Intn(8)), // K
			4*(1+rng.Intn(8)), // C
			7*(1+rng.Intn(4)), // Y
			7*(1+rng.Intn(4)), // X
			3, 3, 1, 1,
		)
		cfg := hw.Spatial{
			PEX:      pes[rng.Intn(len(pes))],
			PEY:      pes[rng.Intn(len(pes))],
			L1Bytes:  1024 * (1 + rng.Intn(8)),
			L2KB:     128 * (1 + rng.Intn(8)),
			NoCBW:    64 * (1 + rng.Intn(4)),
			Dataflow: hw.Dataflow(rng.Intn(2)),
		}
		m := mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
			SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
		req := dist.PPARequest{Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l}
		b, err := json.Marshal(req)
		if err != nil {
			continue
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		out = append(out, b)
	}
	// Deterministic order regardless of map iteration anywhere above.
	sort.Slice(out, func(i, j int) bool { return string(out[i]) < string(out[j]) })
	return out
}
