package unico

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unico/internal/dist"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

func TestNetworksListsZoo(t *testing.T) {
	names := Networks()
	if len(names) < 15 {
		t.Fatalf("only %d networks", len(names))
	}
	want := map[string]bool{"ResNet": true, "Bert": true, "DLEU": true, "FSRCNN-120x320": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing networks: %v", want)
	}
}

func TestPlatformConstructorErrors(t *testing.T) {
	if _, err := OpenSourcePlatform(Edge); err == nil {
		t.Error("no networks accepted")
	}
	if _, err := OpenSourcePlatform(Edge, "NoSuchNet"); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := AscendLikePlatform("NoSuchNet"); err == nil {
		t.Error("unknown network accepted on ascend")
	}
}

func TestOptimizeUNICO(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeContext(context.Background(), p, Config{BatchSize: 6, Iterations: 3, BudgetMax: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Best.HW == "" {
		t.Fatal("no representative design")
	}
	if res.SimulatedHours <= 0 || res.Evaluations <= 0 {
		t.Errorf("cost accounting: %+v", res)
	}
	for _, d := range res.Front {
		if d.LatencyMs <= 0 || d.PowerMW <= 0 || d.AreaMM2 <= 0 {
			t.Errorf("degenerate design %+v", d)
		}
		if d.PowerMW > 2000 {
			t.Errorf("edge power cap violated: %v", d.PowerMW)
		}
	}
}

func TestOptimizeAllMethods(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodUNICO, MethodHASCO, MethodMOBOHB, MethodNSGAII} {
		res, err := OptimizeContext(context.Background(), p, Config{
			Method: m, BatchSize: 6, Iterations: 2, BudgetMax: 10, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Front) == 0 {
			t.Errorf("%v: empty front", m)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := OptimizeContext(context.Background(), nil, Config{}); err == nil {
		t.Error("nil platform accepted")
	}
	p, _ := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if _, err := OptimizeContext(context.Background(), p, Config{Method: Method(42)}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestEvaluateOnRemoteRunsUnderItsContext: a validation search on a remote
// platform is part of the run that asks for it — its advance carries the run
// ID on ctx — and it releases its job, so the worker holds nothing afterwards.
// (Before EvaluateOn took a ctx it advanced under context.Background: no run
// ID on the wire, and one job left on the worker per call.)
func TestEvaluateOnRemoteRunsUnderItsContext(t *testing.T) {
	worker := dist.NewServer()
	handler := worker.Handler()
	var mu sync.Mutex
	runs := map[string][]string{} // path -> run IDs seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		runs[r.URL.Path] = append(runs[r.URL.Path], r.Header.Get(runid.Header))
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p, err := RemoteOpenSourcePlatform(Edge, []string{srv.URL}, RemoteOptions{}, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	local, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	// The Edge-space point of hw.Spatial{PEX: 4, PEY: 4, L1Bytes: 864, L2KB: 96,
	// NoCBW: 64}: each coordinate is the centre of its axis level's cell.
	x := []float64{3.5 / 12, 3.5 / 12, 26.5 / 28, 18.5 / 28, 0.25, 0.25}
	design := Design{HW: p.Describe(x), X: x}
	got, err := EvaluateOn(runid.With(context.Background(), "validation-run"), p, design, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateOn(context.Background(), local, design, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote validation %+v, local %+v", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if adv := runs["/v1/jobs/advance"]; len(adv) != 1 || adv[0] != "validation-run" {
		t.Errorf("advances carried run IDs %q, want one under validation-run", adv)
	}
	if n := worker.JobCount(); n != 0 {
		t.Errorf("worker holds %d jobs after the validation search, want 0", n)
	}
}

func TestEvaluateOnUnseenNetwork(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeContext(context.Background(), p, Config{BatchSize: 6, Iterations: 2, BudgetMax: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := OpenSourcePlatform(Edge, "MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := EvaluateOn(context.Background(), vp, res.Best, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.LatencyMs <= 0 {
		t.Errorf("validation latency %v", d.LatencyMs)
	}
	if d.HW != res.Best.HW {
		t.Errorf("hardware identity lost: %q vs %q", d.HW, res.Best.HW)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodUNICO: "UNICO", MethodHASCO: "HASCO",
		MethodMOBOHB: "MOBOHB", MethodNSGAII: "NSGAII",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if !strings.Contains(Method(9).String(), "9") {
		t.Error("unknown method string")
	}
}

func TestAscendLikePlatformOptimize(t *testing.T) {
	p, err := AscendLikePlatform("FSRCNN-120x320")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeContext(context.Background(), p, Config{BatchSize: 5, Iterations: 2, BudgetMax: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty ascend front")
	}
	for _, d := range res.Front {
		if d.AreaMM2 > 200 {
			t.Errorf("area cap violated: %v", d.AreaMM2)
		}
	}
}

func TestOpenSourcePlatformFromJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/net.json"
	def := `{"name":"Tiny","layers":[
	  {"name":"c1","kind":"conv","k":8,"c":3,"y":16,"x":16,"r":3,"s":3},
	  {"name":"fc","kind":"gemm","m":1,"kin":128,"nout":10}]}`
	if err := os.WriteFile(path, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenSourcePlatformFromJSON(Edge, path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeContext(context.Background(), p, Config{BatchSize: 4, Iterations: 2, BudgetMax: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("custom-workload co-optimization found nothing")
	}
	if _, err := OpenSourcePlatformFromJSON(Edge); err == nil {
		t.Error("no files accepted")
	}
	if _, err := OpenSourcePlatformFromJSON(Edge, dir+"/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestOptimizeCacheBitIdentical: Config.Cache is inert. On both platform
// kinds the result with it set equals the result without, field for field,
// and no evaluation reaches a cache (the process-wide evalcache counters do
// not move).
func TestOptimizeCacheBitIdentical(t *testing.T) {
	platforms := map[string]func() (*Platform, error){
		"spatial": func() (*Platform, error) { return OpenSourcePlatform(Edge, "MobileNetV3-S") },
		"ascend":  func() (*Platform, error) { return AscendLikePlatform("DLEU") },
	}
	for name, build := range platforms {
		run := func(cache bool) *Result {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := OptimizeContext(context.Background(), p, Config{BatchSize: 4, Iterations: 2, BudgetMax: 10, Seed: 3, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		hits, misses := telemetry.EvalCacheHits().Value(), telemetry.EvalCacheMisses().Value()
		plain, cached := run(false), run(true)
		if len(plain.Front) == 0 || !reflect.DeepEqual(plain, cached) {
			t.Errorf("%s: Cache=true changed the result:\n off %+v\n on  %+v", name, plain, cached)
		}
		if h, m := telemetry.EvalCacheHits().Value(), telemetry.EvalCacheMisses().Value(); h != hits || m != misses {
			t.Errorf("%s: evalcache counters moved (hits %d -> %d, misses %d -> %d)", name, hits, h, misses, m)
		}
	}
}

// errTraceFull is the write error of failingWriter.
var errTraceFull = errors.New("trace device full")

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errTraceFull }

// TestTraceWriteFailureIsReported: a trace whose writes failed is an
// incomplete artifact, reported with the result like a failed checkpoint or
// flight record. The search itself is untouched.
func TestTraceWriteFailureIsReported(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BatchSize: 3, Iterations: 2, BudgetMax: 8, Seed: 4}
	want, err := OptimizeContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceWriter = failingWriter{}
	got, err := OptimizeContext(context.Background(), p, cfg)
	if !errors.Is(err, errTraceFull) {
		t.Fatalf("err = %v, want the trace write error", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a failing trace changed the result:\n got  %+v\n want %+v", got, want)
	}
}
