package workload

import (
	"reflect"
	"testing"
	"testing/quick"
)

// totalMACs returns the multiply-accumulate count of a network, including
// layer repeats.
func totalMACs(w Workload) int64 {
	var total int64
	for _, l := range w.Layers {
		total += l.MACs() * int64(l.Repeat)
	}
	return total
}

func TestZooValidates(t *testing.T) {
	for _, w := range All() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if totalMACs(w) <= 0 {
			t.Errorf("%s: MACs() = %d", w.Name, totalMACs(w))
		}
	}
}

func TestZooNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate network name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestZooSizesPlausible(t *testing.T) {
	// Sanity-check total MAC counts against the published ballparks
	// (within 3x): the tables are transcriptions, not exact replicas.
	want := map[string]struct{ lo, hi float64 }{
		"ResNet":    {2e9, 12e9},   // ~4.1 GMACs
		"VGG":       {8e9, 45e9},   // ~15.5 GMACs
		"MobileNet": {0.3e9, 2e9},  // ~0.57 GMACs
		"UNet":      {10e9, 200e9}, // tens of GMACs at 256x256
	}
	for _, w := range All() {
		bounds, ok := want[w.Name]
		if !ok {
			continue
		}
		m := float64(totalMACs(w))
		if m < bounds.lo || m > bounds.hi {
			t.Errorf("%s: MACs = %.3g, want within [%.3g, %.3g]", w.Name, m, bounds.lo, bounds.hi)
		}
	}
}

func TestGemmNormalForm(t *testing.T) {
	g := Gemm("g", 128, 768, 3072, 2)
	if g.Y != 128 || g.C != 768 || g.K != 3072 {
		t.Errorf("Gemm normal form wrong: %+v", g)
	}
	if g.X != 1 || g.R != 1 || g.S != 1 || g.N != 1 {
		t.Errorf("Gemm degenerate dims wrong: %+v", g)
	}
	if got, want := g.MACs(), int64(128)*768*3072; got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
}

func TestLayerMACs(t *testing.T) {
	c := Conv("c", 64, 32, 56, 56, 3, 3, 1, 1)
	want := int64(64) * 32 * 56 * 56 * 9
	if got := c.MACs(); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
	d := DWConv("d", 64, 56, 56, 3, 3, 1, 1)
	if got, want := d.MACs(), int64(64)*56*56*9; got != want {
		t.Errorf("dwconv MACs = %d, want %d", got, want)
	}
}

func TestLayerFootprints(t *testing.T) {
	l := Conv("c", 8, 4, 10, 10, 3, 3, 2, 1)
	// Input: 4 channels x ((10-1)*2+3)^2 = 4*21*21.
	if got, want := l.InputBytes(), int64(4*21*21); got != want {
		t.Errorf("InputBytes = %d, want %d", got, want)
	}
	if got, want := l.WeightBytes(), int64(8*4*3*3); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := l.OutputBytes(), int64(8*10*10); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
	// Depthwise input footprint follows K, not C.
	d := DWConv("d", 16, 10, 10, 3, 3, 1, 1)
	if got, want := d.InputBytes(), int64(16*12*12); got != want {
		t.Errorf("dw InputBytes = %d, want %d", got, want)
	}
}

func TestValidateRejectsBadLayers(t *testing.T) {
	bad := Conv("bad", 0, 4, 10, 10, 3, 3, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted K = 0")
	}
	dw := Layer{Name: "dw", Kind: DWConv2D, N: 1, K: 4, C: 2, Y: 4, X: 4, R: 3, S: 3, Stride: 1, Repeat: 1}
	if err := dw.Validate(); err == nil {
		t.Error("Validate accepted depthwise with C = 2")
	}
	if err := (Workload{Name: "x"}).Validate(); err == nil {
		t.Error("Validate accepted empty workload")
	}
	if err := (Workload{Layers: []Layer{Conv("c", 1, 1, 1, 1, 1, 1, 1, 1)}}).Validate(); err == nil {
		t.Error("Validate accepted empty name")
	}
}

// TestValidateErrorText pins Layer.Validate's message for each offending
// field — the first one in N, K, C, Y, X, R, S, stride, repeat order wins —
// and for the depthwise C != 1 case.
func TestValidateErrorText(t *testing.T) {
	ok := Layer{Name: "l", Kind: Conv2D, N: 1, K: 2, C: 3, Y: 4, X: 5, R: 3, S: 3, Stride: 1, Repeat: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed layer rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Layer)
		want string
	}{
		{"N", func(l *Layer) { l.N = 0 }, `workload: layer "l": N = 0, want > 0`},
		{"K", func(l *Layer) { l.K = -2 }, `workload: layer "l": K = -2, want > 0`},
		{"C", func(l *Layer) { l.C = 0 }, `workload: layer "l": C = 0, want > 0`},
		{"Y", func(l *Layer) { l.Y = 0 }, `workload: layer "l": Y = 0, want > 0`},
		{"X", func(l *Layer) { l.X = -1 }, `workload: layer "l": X = -1, want > 0`},
		{"R", func(l *Layer) { l.R = 0 }, `workload: layer "l": R = 0, want > 0`},
		{"S", func(l *Layer) { l.S = 0 }, `workload: layer "l": S = 0, want > 0`},
		{"stride", func(l *Layer) { l.Stride = 0 }, `workload: layer "l": stride = 0, want > 0`},
		{"repeat", func(l *Layer) { l.Repeat = -7 }, `workload: layer "l": repeat = -7, want > 0`},
		{"first of two", func(l *Layer) { l.X, l.K = 0, 0 }, `workload: layer "l": K = 0, want > 0`},
		{"depthwise C", func(l *Layer) { l.Kind, l.C = DWConv2D, 3 }, `workload: depthwise layer "l" has C = 3, want 1`},
		{"depthwise and zero", func(l *Layer) { l.Kind, l.C, l.S = DWConv2D, 3, 0 }, `workload: layer "l": S = 0, want > 0`},
	} {
		l := ok
		tc.edit(&l)
		err := l.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %s", tc.name, err, tc.want)
		}
	}
}

func TestByName(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("All() has %d networks, want 19", len(all))
	}
	for _, want := range all {
		got, err := ByName(want.Name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %v, %v; want All()'s entry", want.Name, got.Name, err)
		}
	}
	const unknown = `workload: unknown network "NoSuchNet" (available: [Bert ConvNeXt DLEU EfficientNetV2 ` +
		`FSRCNN-120x320 FSRCNN-240x640 FSRCNN-480x960 MobileNet MobileNetV2 MobileNetV3-L MobileNetV3-S ` +
		`NASNetMobile ResNet ResUNet SRGAN UNet VGG VIT Xception])`
	if _, err := ByName("NoSuchNet"); err == nil || err.Error() != unknown {
		t.Errorf("ByName(NoSuchNet) error = %v, want %s", err, unknown)
	}
}

// TestByNameBuildsOnlyTheNamedNetwork pins what a fleet worker pays per job
// to resolve a network: the allocations of that network's constructor, not
// the zoo's.
func TestByNameBuildsOnlyTheNamedNetwork(t *testing.T) {
	own := testing.AllocsPerRun(100, func() { MobileNet() })
	got := testing.AllocsPerRun(100, func() {
		if _, err := ByName("MobileNet"); err != nil {
			t.Fatal(err)
		}
	})
	if got > own {
		t.Errorf("ByName(MobileNet) allocates %.0f objects, MobileNet() %.0f", got, own)
	}
}

func TestTable12Networks(t *testing.T) {
	nets := Table12Networks()
	if len(nets) != 7 {
		t.Fatalf("Table12Networks returned %d networks, want 7", len(nets))
	}
	wantNames := []string{"Bert", "MobileNet", "ResNet", "SRGAN", "UNet", "VIT", "Xception"}
	for i, w := range nets {
		if w.Name != wantNames[i] {
			t.Errorf("network %d = %s, want %s", i, w.Name, wantNames[i])
		}
	}
}

func TestFSRCNNResolutionScaling(t *testing.T) {
	small := FSRCNN(120, 320)
	big := FSRCNN(240, 640)
	if totalMACs(big) < 3*totalMACs(small) {
		t.Errorf("4x-pixel FSRCNN should have ~4x MACs: %d vs %d", totalMACs(big), totalMACs(small))
	}
}

// TestMACsProductProperty verifies MACs equals the product of the loop
// bounds for arbitrary positive dims.
func TestMACsProductProperty(t *testing.T) {
	f := func(k, c, y, x, r, s uint8) bool {
		l := Layer{
			Name: "p", Kind: Conv2D,
			N: 1, K: int(k%32) + 1, C: int(c%32) + 1,
			Y: int(y%32) + 1, X: int(x%32) + 1,
			R: int(r%5) + 1, S: int(s%5) + 1,
			Stride: 1, Repeat: 1,
		}
		want := int64(l.K) * int64(l.C) * int64(l.Y) * int64(l.X) * int64(l.R) * int64(l.S)
		return l.MACs() == want && l.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
