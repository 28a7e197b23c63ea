package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// TestEachPointCrossesOnce: a co-search through a 3-shard router moves every
// point of every job's two histories over the wire exactly once — the points
// all advance answers carry add up to Σ final Spent for History and for
// RawHistory — and after every installment the master holds what a local
// platform.Spatial job of the same hardware and seed holds, bit for bit. It
// stays so when an answer is lost after the shard did the work (the
// installment is sent twice) and when the shard holding a job under way is
// killed (the next shard replays it), and the result is the local run's.
func TestEachPointCrossesOnce(t *testing.T) {
	nets := []string{"MobileNet"}
	local := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
	opt := core.UNICOOptions(8, 3, 40, 1)
	opt.Workers = 2
	want := core.RunContext(context.Background(), local, opt)

	for _, tc := range []struct {
		name string
		// fault, when set, strikes the first advance of a job under way that
		// reaches any shard, after next (that shard's worker) saw it or not.
		fault func(sh *testShard, next http.Handler, w http.ResponseWriter, r *http.Request)
	}{
		{name: "clean"},
		{name: "answer lost", fault: func(_ *testShard, next http.Handler, w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(httptest.NewRecorder(), r)
			_, _ = w.Write([]byte(`{"id":"`))
		}},
		{name: "shard killed mid-job", fault: func(sh *testShard, _ http.Handler, _ http.ResponseWriter, _ *http.Request) {
			sh.inj.SetDown(true)
			panic(http.ErrAbortHandler)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The router is never started, so no health probe runs, and its
			// forward timeout (DefaultForwardTimeout) outlasts the master's:
			// a shard goes down only when it fails a forward outright.
			_, rsrv, shards := newTestFleet(t, 3, Options{FailAfter: 1}, nil)
			// Every shard carries the fault and one flag decides which strikes,
			// so the first job under way to reach any shard is hit. (A fault
			// on one shard alone went unexercised whenever the ring, hashed
			// over the shards' random ports, sent it no job under way.)
			var struck atomic.Bool
			for _, sh := range shards {
				if tc.fault == nil {
					break
				}
				sh, next := sh, dist.NewServer().Handler()
				sh.restart(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					body, err := io.ReadAll(r.Body)
					if err != nil {
						panic(http.ErrAbortHandler)
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
					var req dist.AdvanceRequest
					if json.Unmarshal(body, &req) == nil && req.Seen > 0 && struck.CompareAndSwap(false, true) {
						tc.fault(sh, next, w, r)
						return
					}
					next.ServeHTTP(w, r)
				}))
			}
			carried := &pointCounter{}
			client := dist.NewClientOptions(rsrv.URL, &http.Client{Transport: carried, Timeout: 30 * time.Second},
				dist.Options{MaxRetries: 4, RetryBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond})
			remote, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, nets)
			if err != nil {
				t.Fatal(err)
			}
			p := &twinPlatform{RemoteSpatialPlatform: remote, local: local, t: t}
			lost := telemetry.DistLostEvals().Value()
			got := core.RunContext(context.Background(), p, opt)

			if tc.fault != nil && !struck.Load() {
				t.Fatal("no job under way reached a shard; the fault exercised nothing")
			}
			if d := telemetry.DistLostEvals().Value() - lost; d != 0 {
				t.Errorf("lost %d evaluations", d)
			}
			if !reflect.DeepEqual(got.All, want.All) {
				t.Error("the fleet's evaluation history differs from the local run's")
			}
			spent := int64(0)
			for _, j := range p.jobs {
				spent += int64(j.Spent())
			}
			if spent == 0 || carried.hist.Load() != spent || carried.raw.Load() != spent {
				t.Errorf("answers carried %d History and %d RawHistory points for Σ Spent = %d; want each point once",
					carried.hist.Load(), carried.raw.Load(), spent)
			}
		})
	}
}

// pointCounter is the master's transport: it counts the points each advance
// answer carries, by the runs of its columns.
type pointCounter struct {
	hist, raw atomic.Int64
}

func (c *pointCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/jobs/advance" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if a, ok := readAnswer(body); ok {
		c.hist.Add(sum(a.history))
		c.raw.Add(sum(a.raw))
	}
	return resp, nil
}

func sum(runs []uint32) int64 {
	n := int64(0)
	for _, r := range runs {
		n += int64(r)
	}
	return n
}

// answerRuns is what the fleet's tests read of an advance's 200 answer:
// its spent and the run lengths of its two column sets.
type answerRuns struct {
	spent        uint64
	history, raw []uint32
}

// readAnswer reads an advance answer's byte layout (internal/dist/answer.go)
// as far as the run lengths: from, spent, best and feasible, then
// per column set its run count, its runs and five columns of values. ok is
// false unless the body is exactly that long.
func readAnswer(b []byte) (answerRuns, bool) {
	le := binary.LittleEndian
	ok := true
	skip := func(n uint64) []byte {
		if n > uint64(len(b)) {
			ok, b = false, nil
			return nil
		}
		p := b[:n]
		b = b[n:]
		return p
	}
	u32 := func() uint32 {
		if p := skip(4); ok {
			return le.Uint32(p)
		}
		return 0
	}
	var a answerRuns
	skip(8) // from
	if p := skip(8); ok {
		a.spent = le.Uint64(p)
	}
	skip(4*8 + 1) // best, feasible
	for _, runs := range []*[]uint32{&a.history, &a.raw} {
		k := u32()
		for i := uint32(0); i < k && ok; i++ {
			*runs = append(*runs, u32())
		}
		skip(5 * 8 * uint64(k))
	}
	return a, ok && len(b) == 0
}

// twinPlatform is the master's platform with every job shadowed by the local
// platform's job for the same hardware and seed.
type twinPlatform struct {
	*dist.RemoteSpatialPlatform
	local *platform.Spatial
	t     *testing.T

	mu   sync.Mutex
	jobs []mapsearch.Searcher // the remote jobs, for their final Spent
}

func (p *twinPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	j := &twinJob{Searcher: p.RemoteSpatialPlatform.NewJob(x, seed), local: p.local.NewJob(x, seed), t: p.t}
	p.mu.Lock()
	p.jobs = append(p.jobs, j.Searcher)
	p.mu.Unlock()
	return j
}

// twinJob advances the remote job and its local twin alike and, after every
// installment, checks that they hold the same histories (%v prints the
// shortest decimal that round-trips a float64, so equal text is equal bits).
type twinJob struct {
	mapsearch.Searcher
	local mapsearch.Searcher
	t     *testing.T
}

func (j *twinJob) Advance(budget int) { j.AdvanceContext(context.Background(), budget) }

func (j *twinJob) AdvanceContext(ctx context.Context, budget int) {
	mapsearch.AdvanceSearcher(ctx, j.Searcher, budget)
	j.local.Advance(budget)
	got := fmt.Sprint(j.History(), j.RawHistory())
	if want := fmt.Sprint(j.local.History(), j.local.RawHistory()); got != want {
		j.t.Errorf("after an installment of %d (spent %d) the master's histories differ from the local search's", budget, j.Spent())
	}
}

func (j *twinJob) Close() error { return j.Searcher.(io.Closer).Close() }
