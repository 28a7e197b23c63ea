package unico

import (
	"os"
	"reflect"
	"strings"
	"testing"

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
	res, err := Optimize(p, Config{BatchSize: 6, Iterations: 3, BudgetMax: 15, Seed: 1})
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
		res, err := Optimize(p, Config{
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
	if _, err := Optimize(nil, Config{}); err == nil {
		t.Error("nil platform accepted")
	}
	p, _ := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if _, err := Optimize(p, Config{Method: Method(42)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestEvaluateOnUnseenNetwork(t *testing.T) {
	p, err := OpenSourcePlatform(Edge, "MobileNetV3-S")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p, Config{BatchSize: 6, Iterations: 2, BudgetMax: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := OpenSourcePlatform(Edge, "MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := EvaluateOn(vp, res.Best, 12, 4)
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
	res, err := Optimize(p, Config{BatchSize: 5, Iterations: 2, BudgetMax: 8, Seed: 5})
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
	res, err := Optimize(p, Config{BatchSize: 4, Iterations: 2, BudgetMax: 8, Seed: 9})
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
			res, err := Optimize(p, Config{BatchSize: 4, Iterations: 2, BudgetMax: 10, Seed: 3, Cache: cache})
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
