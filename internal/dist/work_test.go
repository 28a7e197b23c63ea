package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"unico/internal/core"
	"unico/internal/dist/disttest"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// workerTotals reads what a worker's /metrics says of the jobs it advanced
// on one engine: calls, rejections and layer steps.
func workerTotals(engine string) [3]uint64 {
	return [3]uint64{telemetry.PPAEvals(engine).Value(), telemetry.PPAInfeasible(engine).Value(), telemetry.MapSearchSteps().Value()}
}

// TestWorkerTotalsAddUpItsAnswers: a worker's engine-call, rejection and
// step counters move by exactly what its answers report — the tally's
// growth over what the worker held, and spend × layers steps — including a
// resend that spends nothing, and a worker that rebuilds a job whose holder
// was lost and replays its budget: that worker counts the whole replay. Every
// answer's tally is the one the job reaches locally at that budget.
func TestWorkerTotalsAddUpItsAnswers(t *testing.T) {
	ascendX := platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst).
		Space().Sample(rand.New(rand.NewSource(3)))
	for engine, spec := range map[string]JobSpec{
		"maestro": testSpec(1),
		"camodel": {Platform: "ascend", Networks: []string{"DLEU"}, X: ascendX, Seed: 17},
	} {
		var local serverJob
		if err := local.build(NewServer(), spec); err != nil {
			t.Fatal(err)
		}
		_, holder := newWorker(t)
		_, other := newWorker(t)
		held := map[*Client]JobState{} // each worker's last answer: what it holds
		for _, step := range []struct {
			c            *Client
			seen, budget int
		}{
			{holder, 0, 4},
			{holder, 4, 9},
			{holder, 4, 9}, // resent: spends nothing
			{other, 9, 12}, // the holder is lost: other builds the job and replays 12 units
			{holder, 9, 12},
		} {
			was := workerTotals(engine)
			st, err := step.c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Seen: step.seen, Budget: step.budget})
			if err != nil {
				t.Fatal(err)
			}
			now := workerTotals(engine)
			h := held[step.c]
			want := [3]uint64{st.Tally.Calls - h.Tally.Calls, st.Tally.Infeasible - h.Tally.Infeasible,
				uint64((step.budget - h.Spent) * local.layers)}
			if got := [3]uint64{now[0] - was[0], now[1] - was[1], now[2] - was[2]}; got != want {
				t.Errorf("%s, (%d, %d]: counters moved by %v (calls, rejections, steps), the answer reports %v",
					engine, step.seen, step.budget, got, want)
			}
			held[step.c] = st
			local.searcher.Advance(step.budget - local.searcher.Spent())
			if st.Tally != local.searcher.Tally() {
				t.Errorf("%s at %d: answered tally %+v, the job's own %+v", engine, step.budget, st.Tally, local.searcher.Tally())
			}
		}
		if tl := local.searcher.Tally(); tl.Calls == 0 || tl.Infeasible == 0 {
			t.Fatalf("%s: the job tallied %+v; the test checks too little", engine, tl)
		}
	}
}

// flightLog is a flight sink that keeps every record.
type flightLog struct{ flightrec.RunData }

func (l *flightLog) RecordIteration(it flightrec.Iteration) { l.Iters = append(l.Iters, it) }

// TestPoolRecordsWhatLocalRecords: a co-search through a pool of two
// workers, one killed at the moment a job it holds comes back for more
// budget, writes the flight-record iterations of the same co-search run
// locally — the work counts included: a replayed job answers the tally of a
// job that never moved.
func TestPoolRecordsWhatLocalRecords(t *testing.T) {
	nets := []string{"MobileNetV3-S"}
	ws, err := lookupNetworks(nets)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p core.Platform) *flightrec.RunData {
		var l flightLog
		opt := core.UNICOOptions(4, 3, 10, 3)
		opt.Workers, opt.Flight = 2, &l
		core.RunContext(context.Background(), p, opt)
		return &l.RunData
	}
	want := run(platform.NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike))

	_, survivor := newWorker(t)
	inj := disttest.NewFaultInjector(NewServer().Handler())
	var killed atomic.Bool
	victimSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, err := io.ReadAll(r.Body); err == nil {
			var req AdvanceRequest
			if json.Unmarshal(body, &req) == nil && req.Seen > 0 && killed.CompareAndSwap(false, true) {
				inj.SetDown(true)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inj.ServeHTTP(w, r)
	}))
	t.Cleanup(victimSrv.Close)
	p, err := NewRemoteSpatialPlatform([]*Client{survivor, NewClient(victimSrv.URL, victimSrv.Client())}, hw.Edge, nets)
	if err != nil {
		t.Fatal(err)
	}
	got := run(p)

	if !killed.Load() {
		t.Fatal("the victim never saw a job come back for more budget; the kill exercised nothing")
	}
	if len(want.Iters) != 3 {
		t.Fatalf("the local run recorded %d iterations, want 3", len(want.Iters))
	}
	for _, it := range want.Iters {
		if w := it.Work; w == nil || w.EngineCalls == 0 || w.AcqBounded == 0 && it.Iter > 1 {
			t.Fatalf("iteration %d records work %+v", it.Iter, w)
		}
	}
	if d := flightrec.FirstDifference(want, got); d != "" {
		t.Errorf("the local run (a) and the pool's (b) differ: %s", d)
	}
}
