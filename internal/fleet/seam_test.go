package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"unico/internal/dist"
	"unico/internal/dist/disttest"
	"unico/internal/disttrace"
	"unico/internal/runid"
)

// TestRouterFaultMatrix: every fault the injector knows, the oversized
// answer included, on the first shard of a two-shard fleet × every exchange
// the router makes with a shard. Each cell asserts what that caller
// documents:
//
//   - forward: a shard that fails, hangs, resets or answers with more than
//     dist.MaxBodyBytes is charged one failure and passed over — the next
//     shard answers; a corrupt 200 is an answer, relayed untouched for the
//     client to judge.
//   - probe: anything but a decodable 200 is a failed probe.
//
// The oversize column is the response cap. Before the router's exchanges
// were dist's, a forward relayed the first 4 MiB of an over-long answer as a
// 200.
func TestRouterFaultMatrix(t *testing.T) {
	faults := []struct {
		name    string
		timeout time.Duration // forward and probe; short only where the fault is a hang
		script  func(*disttest.FaultInjector)
	}{
		{"fail", time.Minute, func(f *disttest.FaultInjector) { f.FailNext(1) }},
		{"hang", 40 * time.Millisecond, func(f *disttest.FaultInjector) { f.HangNext(1, 150*time.Millisecond) }},
		{"reset", time.Minute, func(f *disttest.FaultInjector) { f.ResetNext(1) }},
		{"corrupt", time.Minute, func(f *disttest.FaultInjector) { f.CorruptNext(1) }},
		{"oversize", time.Minute, func(f *disttest.FaultInjector) { f.OversizeNext(1, dist.MaxBodyBytes) }},
	}
	for _, fault := range faults {
		setup := func(t *testing.T) (*Router, *httptest.Server, []*testShard) {
			return newTestFleet(t, 2, Options{ForwardTimeout: fault.timeout, ProbeTimeout: fault.timeout}, nil)
		}
		charged := func(t *testing.T, r *Router, want int) {
			t.Helper()
			ms := r.Members()
			if ms[0].ConsecFails != want || ms[1].ConsecFails != 0 {
				t.Fatalf("failures charged: %d and %d, want %d and 0", ms[0].ConsecFails, ms[1].ConsecFails, want)
			}
		}

		t.Run("forward/"+fault.name, func(t *testing.T) {
			router, rsrv, shards := setup(t)
			body, err := json.Marshal(dist.AdvanceRequest{Spec: jobHomedAt(t, router, shards[0].url, 1), Budget: 2})
			if err != nil {
				t.Fatal(err)
			}
			fault.script(shards[0].inj)
			resp, err := http.Post(rsrv.URL+"/v1/jobs/advance", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			answer, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			ct := resp.Header.Get("Content-Type")
			if fault.name == "corrupt" {
				if resp.StatusCode != http.StatusOK || ct != "application/json" || string(answer) != `{"metrics":{"latency_ms":12.` {
					t.Fatalf("corrupt answer not relayed as it came: %d %s %q", resp.StatusCode, ct, answer)
				}
				charged(t, router, 0)
				return
			}
			if a, ok := readAnswer(answer); resp.StatusCode != http.StatusOK || ct != "application/octet-stream" || !ok || a.spent != 2 {
				t.Fatalf("router answered %d %s %.80q, want the next shard's state at budget 2", resp.StatusCode, ct, answer)
			}
			charged(t, router, 1)
			if shards[1].hits.Load() != 1 {
				t.Fatalf("next shard saw %d requests, want 1", shards[1].hits.Load())
			}
		})

		t.Run("probe/"+fault.name, func(t *testing.T) {
			router, _, shards := setup(t)
			fault.script(shards[0].inj)
			router.ProbeAll(context.Background())
			charged(t, router, 1)
		})

	}
}

// TestRouterPassesTraceParentThroughUntraced: a router that records no spans
// is still a link in the chain — the run ID and the trace parent a request
// arrives with are the ones its forward carries, so a traced client and a
// traced shard stay connected across it.
func TestRouterPassesTraceParentThroughUntraced(t *testing.T) {
	if disttrace.Active() != nil {
		t.Fatal("tracing is on")
	}
	var got http.Header
	_, rsrv, _ := newTestFleet(t, 1, Options{}, func() http.Handler {
		worker := dist.NewServer().Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got = r.Header.Clone()
			worker.ServeHTTP(w, r)
		})
	})
	req, err := http.NewRequest(http.MethodPost, rsrv.URL+"/v1/ppa", bytes.NewReader(spatialPPABody(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := disttrace.SpanContext{Trace: "run-7", Span: "attempt-3"}
	req.Header.Set(runid.Header, want.Trace)
	disttrace.Inject(req.Header, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if sc := disttrace.Extract(got); sc != want || got.Get(runid.Header) != want.Trace {
		t.Fatalf("shard saw parent %+v and run %q, want %+v", sc, got.Get(runid.Header), want)
	}
}
