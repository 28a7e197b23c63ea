package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unico/internal/camodel"
	"unico/internal/core"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

func newWorker(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, srv.Client())
}

// testSpec is a small valid job: MobileNetV3-S on a 4x4 Edge array.
func testSpec(seed int64) JobSpec {
	// The Edge-space point of hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96,
	// NoCBW: 64}: each coordinate is the centre of its axis level's cell.
	x := []float64{3.5 / 12, 3.5 / 12, 26.5 / 28, 18.5 / 28, 0.25, 0.25}
	return JobSpec{
		Platform: "spatial", Scenario: "edge",
		Networks: []string{"MobileNetV3-S"}, X: x, Algo: "flextensor", Seed: seed,
	}
}

// countingSpatial counts the engine calls a worker makes. It embeds the
// interface, not maestro.Engine, so it does not offer the engine's Bind and
// every call comes through Evaluate.
type countingSpatial struct {
	mapsearch.SpatialEngine
	calls *atomic.Int64
}

func (e countingSpatial) Evaluate(h hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	e.calls.Add(1)
	return e.SpatialEngine.Evaluate(h, m, l)
}

// newCountingWorker starts a worker whose spatial engine counts its calls.
func newCountingWorker(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	calls := new(atomic.Int64)
	return NewServerWith(countingSpatial{SpatialEngine: maestro.Engine{}, calls: calls}, camodel.Engine{}), calls
}

func TestHealthz(t *testing.T) {
	_, c := newWorker(t)
	if !c.HealthyContext(context.Background()) {
		t.Error("worker not healthy")
	}
	dead := NewClient("http://127.0.0.1:1", nil)
	if dead.HealthyContext(context.Background()) {
		t.Error("unreachable worker reported healthy")
	}
}

// ppaMeters reads the worker's /v1/ppa meters for maestro: calls and
// capacity rejections.
func ppaMeters() (evals, infeasible uint64) {
	return telemetry.PPAEvals("maestro").Value(), telemetry.PPAInfeasible("maestro").Value()
}

// TestPPAEndpointSpatial evaluates one triple through /v1/ppa, which the
// worker meters as one engine call.
func TestPPAEndpointSpatial(t *testing.T) {
	_, c := newWorker(t)
	l := workload.Conv("c", 16, 8, 14, 14, 3, 3, 1, 1)
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 1728, L2KB: 432, NoCBW: 128, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 1, TC: 1, TY: 1, TX: 1, TR: 1, TS: 1,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	evals, infeasible := ppaMeters()
	resp, err := c.EvaluatePPAContext(context.Background(), PPARequest{
		Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
	if e, i := ppaMeters(); e-evals != 1 || i-infeasible != 0 {
		t.Errorf("one request moved the meters by %d calls and %d rejections, want 1 and 0", e-evals, i-infeasible)
	}
}

func TestPPAEndpointInfeasibleFlag(t *testing.T) {
	_, c := newWorker(t)
	l := workload.Conv("c", 64, 64, 28, 28, 3, 3, 1, 1)
	cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 4, L2KB: 1, NoCBW: 64, Dataflow: hw.WeightStationary}
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	evals, infeasible := ppaMeters()
	resp, err := c.EvaluatePPAContext(context.Background(), PPARequest{
		Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Infeasible {
		t.Errorf("infeasible mapping not flagged: %+v", resp)
	}
	if e, i := ppaMeters(); e-evals != 1 || i-infeasible != 1 {
		t.Errorf("one rejected request moved the meters by %d calls and %d rejections, want 1 and 1", e-evals, i-infeasible)
	}
}

// TestPPAEndpointInfeasibleWireText pins the bytes a worker answers a
// capacity rejection with, for both of maestro's: the error's text is built
// when the server asks for it, and what it builds must not have moved.
func TestPPAEndpointInfeasibleWireText(t *testing.T) {
	srv, _ := newWorker(t)
	l := workload.Conv("c", 64, 64, 28, 28, 3, 3, 1, 1)
	m := mapping.Spatial{TK: 8, TC: 8, TY: 4, TX: 4, TR: 3, TS: 3,
		SpatX: mapping.DimK, SpatY: mapping.DimY}.Canon(l)
	const zero = `{"metrics":{"LatencyMs":0,"PowerMW":0,"AreaMM2":0,"EnergyUJ":0},"infeasible":true,"error":`
	for _, tc := range []struct {
		l1Bytes, l2KB int
		want          string
	}{
		{4, 1, zero + `"maestro: mapping infeasible on hardware: L1 tile 2240 B \u003e 4 B"}` + "\n"},
		{1 << 20, 1, zero + `"maestro: mapping infeasible on hardware: L2 working set 14528 B \u003e 1024 B"}` + "\n"},
	} {
		cfg := hw.Spatial{PEX: 4, PEY: 4, L1Bytes: tc.l1Bytes, L2KB: tc.l2KB, NoCBW: 64, Dataflow: hw.WeightStationary}
		body, err := json.Marshal(PPARequest{Platform: "spatial", SpatialHW: &cfg, SpatialMapping: &m, Layer: l})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/ppa", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("L1 %d B, L2 %d KB: wire body %q, want %q", tc.l1Bytes, tc.l2KB, got, tc.want)
		}
	}
}

func TestPPAEndpointAscend(t *testing.T) {
	_, c := newWorker(t)
	l := workload.Gemm("g", 64, 256, 64, 1)
	cfg := hw.DefaultAscend()
	m := mapping.Ascend{TM: cfg.CubeM, TK: cfg.CubeK, TN: cfg.CubeN, FuseDepth: 1}.Canon(l)
	resp, err := c.EvaluatePPAContext(context.Background(), PPARequest{
		Platform: "ascend", AscendHW: &cfg, AscendMapping: &m, Layer: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || !resp.Metrics.Valid() {
		t.Fatalf("response: %+v", resp)
	}
}

func TestPPAEndpointBadRequests(t *testing.T) {
	_, c := newWorker(t)
	if resp, err := c.EvaluatePPAContext(context.Background(), PPARequest{Platform: "quantum"}); err != nil {
		t.Fatal(err)
	} else if resp.Error == "" {
		t.Error("unknown platform accepted")
	}
	if resp, err := c.EvaluatePPAContext(context.Background(), PPARequest{Platform: "spatial"}); err != nil {
		t.Fatal(err)
	} else if resp.Error == "" {
		t.Error("missing spatial payload accepted")
	}
}

func TestJobLifecycle(t *testing.T) {
	s, calls := newCountingWorker(t)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	spec := testSpec(1)
	local, err := NewServer().buildSearcher(spec)
	if err != nil {
		t.Fatal(err)
	}
	local.Advance(8)
	// answers reports whether st carries exactly the points in (seen, budget]
	// of the job's own search.
	answers := func(st JobState, seen, budget int) bool {
		return st.Spent == budget &&
			reflect.DeepEqual(st.History, local.History()[seen:budget]) &&
			reflect.DeepEqual(st.Raw, local.RawHistory()[seen:budget])
	}
	// The first advance builds the job: there is nothing to create.
	st, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !answers(st, 0, 5) {
		t.Errorf("state after 5 units: %+v", st)
	}
	if !st.Feasible || !st.Best.Valid() {
		t.Errorf("no feasible mapping: %+v", st)
	}
	// The same target again polls: nothing is spent, the answer is the same.
	before := calls.Load()
	st2, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st2, st) || calls.Load() != before {
		t.Errorf("poll advanced the job (%d engine calls): %+v", calls.Load()-before, st2)
	}
	// The budget is cumulative: 8 after 5 spends 3 more, and the answer
	// carries only the 3 new points — the ones a single advance to 8 reaches.
	st8, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 8, Seen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !answers(st8, 5, 8) {
		t.Errorf("state after 8 units does not answer only the points after 5: %+v", st8)
	}
	// The installment sent twice spends nothing and answers the same points.
	before = calls.Load()
	again, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 8, Seen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, st8) || calls.Load() != before {
		t.Errorf("installment sent again (%d engine calls): %+v", calls.Load()-before, again)
	}
	// A target behind the held job is answered from the spec, not refused.
	st3, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 3, Seen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !answers(st3, 2, 3) {
		t.Errorf("state at an earlier target: %+v", st3)
	}
	if n := s.JobCount(); n != 1 {
		t.Errorf("worker holds %d jobs for one spec, want 1", n)
	}
	if _, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
}

// remoteHistory advances the job on a fresh worker and returns the
// best-so-far history the worker reports, rendered with %v (shortest
// round-trip floats, so equal strings mean equal bits).
func remoteHistory(t *testing.T, spec JobSpec, budget int) string {
	t.Helper()
	_, c := newWorker(t)
	st, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(st.History)
}

// ascendJobGoldenDigest was captured on the commit before the depth-first
// walk became an on-demand generator; see TestAscendJobMatchesLocalAndGolden.
const ascendJobGoldenDigest = "cd14df1d3df253332897ce1eb725f5eced054c024a7e018b122df14407a43a27"

// TestAscendJobMatchesLocalAndGolden builds one "ascend" job spec through
// the worker and through platform.Ascend.NewJob: both must report the same
// history, bit for bit, and it must be the one the eager walk produced.
func TestAscendJobMatchesLocalAndGolden(t *testing.T) {
	const budget, seed = 60, 17
	p := platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
	x := p.Space().Sample(rand.New(rand.NewSource(3)))
	local := p.NewJob(x, seed)
	local.Advance(budget)
	want := fmt.Sprint(local.History())

	got := remoteHistory(t, JobSpec{
		Platform: "ascend", Networks: []string{"DLEU"}, X: x, Algo: "depthfirst", Seed: seed,
	}, budget)
	if got != want {
		t.Errorf("remote history differs from local:\n remote %s\n local  %s", got, want)
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digest captured on amd64; other architectures may fuse multiply-adds")
	}
	if d := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); d != ascendJobGoldenDigest {
		t.Errorf("history digest %s, want %s", d, ascendJobGoldenDigest)
	}
}

// TestTwoNetworkJobMatchesLocal pins that the worker combines a
// multi-network spec exactly as the local platform does (workload.Combine).
func TestTwoNetworkJobMatchesLocal(t *testing.T) {
	const budget, seed = 12, 5
	nets := []string{"MobileNetV3-S", "FSRCNN-120x320"}
	ws := make([]workload.Workload, len(nets))
	for i, n := range nets {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	p := platform.NewSpatial(hw.Edge, ws, mapsearch.FlexTensorLike)
	x := p.Space().Sample(rand.New(rand.NewSource(8)))
	local := p.NewJob(x, seed)
	local.Advance(budget)
	want := fmt.Sprint(local.History())

	got := remoteHistory(t, JobSpec{
		Platform: "spatial", Scenario: "edge", Networks: nets, X: x, Algo: "flextensor", Seed: seed,
	}, budget)
	if got != want {
		t.Errorf("remote history differs from local:\n remote %s\n local  %s", got, want)
	}
}

// TestJobDelete: a release drops whichever of the named jobs the worker
// holds and names the rest without error, so a batch sent again after a lost
// answer, or naming jobs another worker held, is no failure.
func TestJobDelete(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		spec := testSpec(seed)
		if _, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 1}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, spec.Key())
	}
	if err := c.ReleaseJobsContext(context.Background(), ids[:2]); err != nil {
		t.Fatal(err)
	}
	if n := s.JobCount(); n != 1 {
		t.Errorf("worker holds %d jobs after releasing two of three", n)
	}
	for _, batch := range [][]string{ids, ids, {"job-999"}, nil} {
		if err := c.ReleaseJobsContext(context.Background(), batch); err != nil {
			t.Errorf("release of %d keys, held or not: %v", len(batch), err)
		}
	}
	if n := s.JobCount(); n != 0 {
		t.Errorf("worker holds %d jobs after the release", n)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/release", strings.NewReader(`{"ids":"k"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("a malformed release answered %d, want 400", rec.Code)
	}
}

func TestServerReleasesJobsAfterRun(t *testing.T) {
	// The co-optimizer closes remote jobs once a candidate is scored, so a
	// worker's job map stays empty between batches instead of growing for
	// the lifetime of the search (the leak this route was added to fix).
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())

	p, err := NewRemoteSpatialPlatform([]*Client{c}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.UNICOOptions(3, 2, 8, 9)
	opt.Workers = 2
	res := core.RunContext(context.Background(), p, opt)
	if len(res.All) == 0 {
		t.Fatal("no candidates evaluated")
	}
	if got := s.JobCount(); got != 0 {
		t.Errorf("worker still holds %d jobs after the run", got)
	}
}

// newPoolJob returns a job of a platform over the given workers, as
// core.Run gets them from NewJob.
func newPoolJob(t *testing.T, workers ...*Client) *remoteJob {
	t.Helper()
	p, err := NewRemoteSpatialPlatform(workers, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	return p.NewJob(spec.X, spec.Seed).(*remoteJob)
}

func TestRemoteJobCloseIdempotent(t *testing.T) {
	_, c := newWorker(t)
	job := newPoolJob(t, c)
	job.Advance(2)
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
	// Last-seen state stays readable after close.
	if job.Spent() != 2 {
		t.Errorf("Spent after close = %d, want 2", job.Spent())
	}
}

// TestPoolReleasesOnceNoJobIsOpen: closing a job queues its release, and
// the pool sends the queue in one request when its last open job closes —
// also when that job never advanced, under the run ID its other jobs
// advanced with — or at the next NewJob, so a job that is never closed
// holds the others back no longer than that.
func TestPoolReleasesOnceNoJobIsOpen(t *testing.T) {
	s := NewServer()
	var mu sync.Mutex
	var releases []string // the run ID of each release request
	inner := s.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/release" {
			mu.Lock()
			releases = append(releases, r.Header.Get(runid.Header))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	p, err := NewRemoteSpatialPlatform([]*Client{NewClient(srv.URL, srv.Client())}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := runid.With(context.Background(), "pool-run")
	spec := testSpec(0)
	newJob := func(seed int64, budget int) mapsearch.Searcher {
		j := p.NewJob(spec.X, seed)
		if budget > 0 {
			j.(mapsearch.ContextAdvancer).AdvanceContext(ctx, budget)
		}
		return j
	}
	sent := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), releases...)
	}

	a, b, idle := newJob(1, 2), newJob(2, 2), newJob(3, 0)
	core.CloseJobs([]mapsearch.Searcher{a, b})
	if n, r := s.JobCount(), sent(); n != 2 || len(r) != 0 {
		t.Fatalf("with a job still open: %d jobs held, releases %q; want 2 and none", n, r)
	}
	core.CloseJobs([]mapsearch.Searcher{idle})
	if n, r := s.JobCount(), sent(); n != 0 || !reflect.DeepEqual(r, []string{"pool-run"}) {
		t.Fatalf("after the last close: %d jobs held, releases %q; want 0 and one under the run's ID", n, r)
	}

	c := newJob(4, 1)
	newJob(5, 1) // never closed
	core.CloseJobs([]mapsearch.Searcher{c})
	newJob(6, 0)
	if n, r := s.JobCount(), sent(); n != 1 || len(r) != 2 {
		t.Errorf("a never-closed job held back the release: %d jobs held, %d releases; want 1 and 2", n, len(r))
	}
}

func TestJobSpecValidation(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	cases := []JobSpec{
		{Platform: "spatial", Scenario: "edge", Networks: nil, Algo: "flextensor"},
		{Platform: "spatial", Scenario: "mars", Networks: []string{"ResNet"}, X: make([]float64, 6)},
		{Platform: "spatial", Scenario: "edge", Networks: []string{"NoSuchNet"}, X: make([]float64, 6)},
		{Platform: "spatial", Scenario: "edge", Networks: []string{"ResNet"}, X: make([]float64, 2)},
		{Platform: "warp", Networks: []string{"ResNet"}, X: make([]float64, 6)},
		{Platform: "spatial", Scenario: "edge", Networks: []string{"ResNet"}, X: make([]float64, 6), Algo: "psychic"},
	}
	for i, spec := range cases {
		if _, err := c.AdvanceJobContext(context.Background(), AdvanceRequest{Spec: spec, Budget: 1}); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
	if n := s.JobCount(); n != 0 {
		t.Errorf("rejected specs left %d jobs behind", n)
	}
}

// TestAdvanceAlgoContract: each platform runs one mapping searcher, so a
// spec's algo is empty or names it — "flextensor" on spatial, "depthfirst"
// on ascend. Any other algo is a bad spec, answered 400 with no job held,
// and an empty one builds the platform's searcher: its answer equals the
// answer to the spec that names the searcher.
func TestAdvanceAlgoContract(t *testing.T) {
	const budget = 60
	ascendX := platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst).
		Space().Sample(rand.New(rand.NewSource(3)))
	specs := map[string]JobSpec{
		"spatial": testSpec(1),
		"ascend":  {Platform: "ascend", Networks: []string{"DLEU"}, X: ascendX, Seed: 17},
	}
	named := map[string]JobState{} // each platform's answer to the spec naming its searcher
	for _, tc := range []struct {
		platform, algo string
		want           int
	}{
		{"spatial", "flextensor", http.StatusOK},
		{"spatial", "", http.StatusOK},
		{"spatial", "gamma", http.StatusBadRequest},
		{"spatial", "depthfirst", http.StatusBadRequest},
		{"ascend", "depthfirst", http.StatusOK},
		{"ascend", "", http.StatusOK},
		{"ascend", "gamma", http.StatusBadRequest},
		{"ascend", "flextensor", http.StatusBadRequest},
	} {
		spec := specs[tc.platform]
		spec.Algo = tc.algo
		req := AdvanceRequest{Spec: spec, Budget: budget}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/advance", bytes.NewReader(body)))
		held := 0
		if tc.want == http.StatusOK {
			held = 1
		}
		if rec.Code != tc.want || s.JobCount() != held {
			t.Errorf("%s %q: answered %d holding %d jobs, want %d holding %d",
				tc.platform, tc.algo, rec.Code, s.JobCount(), tc.want, held)
			continue
		}
		if tc.want != http.StatusOK {
			continue
		}
		st, err := decodeAnswer(rec.Body.Bytes(), req)
		if err != nil {
			t.Fatalf("%s %q: %v", tc.platform, tc.algo, err)
		}
		want, ok := named[tc.platform]
		if !ok {
			named[tc.platform] = st
			continue
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("%s %q: answer differs from the named searcher's (final loss %v, want %v)",
				tc.platform, tc.algo, st.History.Last().Loss, want.History.Last().Loss)
		}
	}
}

func TestRemotePlatformEndToEnd(t *testing.T) {
	var clients []*Client
	for i := 0; i < 2; i++ {
		_, c := newWorker(t)
		clients = append(clients, c)
	}
	p, err := NewRemoteSpatialPlatform(clients, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.UNICOOptions(4, 2, 10, 3)
	opt.Workers = 2
	res := core.RunContext(context.Background(), p, opt)
	if len(res.All) != 8 {
		t.Fatalf("evaluated %d candidates, want 8", len(res.All))
	}
	if len(res.Front) == 0 {
		t.Error("distributed run produced no feasible designs")
	}
}

func TestRemotePlatformValidation(t *testing.T) {
	if _, err := NewRemoteSpatialPlatform(nil, hw.Edge, []string{"ResNet"}); err == nil {
		t.Error("no workers accepted")
	}
	_, c := newWorker(t)
	if _, err := NewRemoteSpatialPlatform([]*Client{c}, hw.Edge, []string{"NoSuchNet"}); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestRemoteJobDeadWorker(t *testing.T) {
	srv, c := newWorker(t)
	job := newPoolJob(t, c)
	srv.Close()
	job.Advance(3) // must latch the transport error, not panic
	if job.err == nil {
		t.Error("transport error not latched")
	}
	if _, ok := job.Best(); ok {
		t.Error("dead job reported a feasible result")
	}
	if err := job.Close(); err != nil {
		t.Errorf("Close of a job no worker answered for: %v", err)
	}
}

func TestRemotePlatformFailsOver(t *testing.T) {
	// Two workers; kill one. Every job's first advance must fail over to
	// the survivor and keep producing feasible candidates.
	srv1, c1 := newWorker(t)
	_, c2 := newWorker(t)
	p, err := NewRemoteSpatialPlatform([]*Client{c1, c2}, hw.Edge, []string{"MobileNetV3-S"})
	if err != nil {
		t.Fatal(err)
	}
	if !c1.HealthyContext(context.Background()) || !c2.HealthyContext(context.Background()) {
		t.Fatal("a fresh worker does not answer its health endpoint")
	}
	srv1.Close()
	if c1.HealthyContext(context.Background()) {
		t.Fatal("a killed worker still reports healthy")
	}
	for i := 0; i < 4; i++ {
		x := testSpec(0).X
		x[0] = (3.5 + float64(i)) / 12 // a (4+i)×4 array
		job := p.NewJob(x, int64(i))
		job.Advance(3)
		if _, ok := job.Best(); !ok {
			t.Fatalf("job %d found nothing despite a live worker", i)
		}
	}
}

// TestJobsOfOneShapeShareAPlatform: jobs that differ only in hardware and
// seed are built over one platform, so they read one mapsearch.Network —
// one layer order, one set of moves per layer. A job of another shape
// replaces the worker's one platform, and a shape that fails to build
// leaves it in place.
func TestJobsOfOneShapeShareAPlatform(t *testing.T) {
	s := NewServer()
	a, b := testSpec(1), testSpec(2)
	// hw.Spatial{PEX: 8, PEY: 2, L1Bytes: 1728, L2KB: 192, NoCBW: 128}
	b.X = []float64{7.5 / 12, 1.5 / 12, 27.5 / 28, 21.5 / 28, 0.75, 0.25}
	pa, err := s.platform(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{a, b} {
		if _, err := s.buildSearcher(spec); err != nil {
			t.Fatal(err)
		}
	}
	if pb, err := s.platform(b); err != nil || pb != pa {
		t.Fatalf("second job of the shape got platform %p (err %v), first %p", pb, err, pa)
	}

	c := testSpec(1)
	c.Scenario, c.Networks = "cloud", []string{"ResNet"}
	pc, err := s.platform(c)
	if err != nil {
		t.Fatal(err)
	}
	if pc == pa {
		t.Fatal("a job of another shape shares the first shape's platform")
	}
	if s.plat != pc {
		t.Error("a new shape did not replace the worker's platform")
	}
	if _, err := s.platform(JobSpec{Platform: "spatial", Networks: []string{"NoSuchNet"}}); err == nil {
		t.Error("unknown network built a platform")
	}
	if p, err := s.platform(c); err != nil || p != pc {
		t.Errorf("a shape that fails to build displaced the worker's platform")
	}
	if p, err := s.platform(a); err != nil || p == pa {
		t.Errorf("a replaced shape's platform was kept (err %v)", err)
	}
}

// TestConcurrentJobsShareAPlatform builds and advances jobs of one shape
// from many goroutines at once, as a shard's concurrent advances do: they
// must all come out of one platform.
func TestConcurrentJobsShareAPlatform(t *testing.T) {
	s := NewServer()
	got := make([]jobPlatform, 18)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec(int64(i))
			p, err := s.platform(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
			p.NewJob(spec.X, spec.Seed).Advance(2)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Errorf("job %d built over another platform than job 0", i)
		}
	}
}

// TestRouteLabel: a worker route keeps its path as its metric label, and so
// does an extra route a router names; any other path — a route this
// protocol does not have, or a scanner's probe — folds into "other", so the
// label set stays bounded.
func TestRouteLabel(t *testing.T) {
	label := RouteLabel("/v1/fleet/members")
	for path, want := range map[string]string{
		"/v1/ppa":           "/v1/ppa",
		"/v1/jobs/advance":  "/v1/jobs/advance",
		"/v1/jobs/release":  "/v1/jobs/release",
		"/v1/healthz":       "/v1/healthz",
		"/v1/drain":         "/v1/drain",
		"/v1/undrain":       "/v1/undrain",
		"/v1/fleet/members": "/v1/fleet/members",
		"/v1/spans":         "other",
		"/metrics/fleet":    "other",
		"/wp-login.php":     "other",
	} {
		if got := label(httptest.NewRequest(http.MethodGet, path, nil)); got != want {
			t.Errorf("%s labeled %q, want %q", path, got, want)
		}
	}
	if got := RouteLabel()(httptest.NewRequest(http.MethodGet, "/v1/fleet/members", nil)); got != "other" {
		t.Errorf("a worker labels the router's /v1/fleet/members %q, want other", got)
	}
}
