package camodel

import (
	"math"
	"testing"
)

// loopState is the engine state of walkByLoop.
type loopState struct {
	cube, vec, dmaOut float64
}

// walkByLoop is the tile loop as Evaluate ran it before the window had a
// closed form, copied literally: the oracle window must match bit for bit.
// It also returns the final state, so a test can tell which chain bound.
func walkByLoop(w tileWalk) (warmup, cycles float64, st loopState) {
	fetch, cubeCycles, icachePenalty := w.fetch, w.cube, w.icache
	vecCycles, dmaOutCycles := w.vec, w.dmaOut
	overlap, explicit := w.overlap, w.explicit
	warmStep := explicit / 4
	vecEvery := w.vecEvery
	kLeft := vecEvery
	for step := 0; step < explicit; step++ {
		if step == 0 || !overlap {
			st.cube += fetch
		}
		st.cube += cubeCycles
		if icachePenalty > 0 {
			st.cube += icachePenalty
		}
		kLeft--
		if kLeft == 0 {
			kLeft = vecEvery
			if st.cube > st.vec {
				st.vec = st.cube
			}
			st.vec += vecCycles
			if st.vec > st.dmaOut {
				st.dmaOut = st.vec
			}
			st.dmaOut += dmaOutCycles
		}
		if step == warmStep {
			warmup = max(st.cube, st.vec, st.dmaOut)
		}
	}
	return warmup, max(st.cube, st.vec, st.dmaOut), st
}

// sameBits reports whether window and walkByLoop agree bit for bit on w,
// and whether window took the closed form.
func sameBits(t *testing.T, w tileWalk) (closed bool) {
	t.Helper()
	gotWarm, gotEnd, closed := w.window()
	wantWarm, wantEnd, _ := walkByLoop(w)
	if math.Float64bits(gotWarm) != math.Float64bits(wantWarm) || math.Float64bits(gotEnd) != math.Float64bits(wantEnd) {
		t.Fatalf("%+v: window (closed %v) = %v, %v; loop %v, %v", w, closed, gotWarm, gotEnd, wantWarm, wantEnd)
	}
	return closed
}

// TestClosedFormMatchesLoop holds the closed form to the loop over the
// window's edge shapes: a single step and the full 4 096, a warm-up sample
// at step 0, one K tile per output tile, more K tiles than steps, and K
// tile counts that divide explicit/4+1 and that do not; with the fetch
// overlapped and not, with and without an i-cache penalty, and with the
// cube, the vector unit and DMA-out each binding. Every cost lies on the
// unit grid, so the closed form must take every case.
func TestClosedFormMatchesLoop(t *testing.T) {
	regimes := []struct {
		name                     string
		fetch, cube, vec, dmaOut float64
	}{
		// A bank-arbitration share of 2⁻¹⁰ cycles rides on the cube.
		{"cube", 2.5, 100 + 1.0/1024, 3 + 1.0/128, 1.25},
		{"vector", 1, 3, 400.5, 2},
		{"DMA-out", 1, 3, 5, 900.25},
	}
	bound := map[string]int{}
	cases := 0
	for _, explicit := range []int{1, 2, 3, 4, 5, 21, 4095, maxExplicitSteps} {
		for _, v := range []int{1, 2, 3, 4, 6, 9, explicit, explicit + 1, 100_000} {
			for _, overlap := range []bool{false, true} {
				for _, icache := range []float64{0, 48} {
					for _, r := range regimes {
						w := tileWalk{fetch: r.fetch, cube: r.cube, icache: icache, vec: r.vec, dmaOut: r.dmaOut,
							overlap: overlap, explicit: explicit, vecEvery: v}
						if !sameBits(t, w) {
							t.Fatalf("%+v: the closed form declined costs on the unit grid", w)
						}
						cases++
						_, end, st := walkByLoop(w)
						switch end {
						case st.cube:
							bound["cube"]++
						case st.dmaOut:
							bound["DMA-out"]++
						default:
							bound["vector"]++
						}
					}
				}
			}
		}
	}
	// DMA-out trails the vector unit by at least its cost, so the vector
	// unit binds only where DMA-out costs nothing.
	for _, r := range []string{"cube", "DMA-out"} {
		if bound[r] == 0 {
			t.Errorf("no case had %s bind", r)
		}
	}
	zero := tileWalk{fetch: 1, cube: 3, vec: 400.5, explicit: 21, vecEvery: 3}
	sameBits(t, zero)
	if _, end, st := walkByLoop(zero); end != st.vec {
		t.Errorf("the vector unit does not bind %+v", zero)
	}
	t.Logf("%d cases; chain that bound: %v", cases, bound)
}

// TestClosedFormDeclinesOffGrid feeds the window costs the closed form
// cannot take exactly: off the 2⁻¹⁰ grid, at or past 2⁴³ cycles, one unit
// past the per-step bound that keeps its int64 products from overflowing,
// within that bound but summing past 2⁴³ cycles over 4 096 steps (near
// overflow of the units), negative, infinite and NaN. The closed form must
// decline each, and the loop's bits must come back.
func TestClosedFormDeclinesOffGrid(t *testing.T) {
	const maxStep = float64(maxStepUnits) / unitsPerCycle
	bad := []struct {
		name string
		x    float64
		// perStep: the cost is exact once but not summed over the window,
		// so a fetch paid only on step 0 is still taken.
		perStep bool
	}{
		{"1/3", 1.0 / 3, false},
		{"2⁻¹¹", 1.0 / 2048, false},
		{"2⁴³ cycles", 1 << 43, false},
		{"2⁵⁰ cycles", 1 << 50, false},
		{"one unit past the step bound", maxStep + 1.0/unitsPerCycle, false},
		{"the step bound", maxStep, true},
		{"2³³ cycles", 1 << 33, true},
		{"negative", -1, false},
		{"+Inf", math.Inf(1), false},
		{"NaN", math.NaN(), false},
	}
	base := tileWalk{fetch: 2.5, cube: 100, icache: 48, vec: 7.5, dmaOut: 1.25, explicit: maxExplicitSteps, vecEvery: 3}
	fields := []struct {
		name string
		set  func(*tileWalk, float64)
	}{
		{"fetch", func(w *tileWalk, x float64) { w.fetch = x }},
		{"cube", func(w *tileWalk, x float64) { w.cube = x }},
		{"icache", func(w *tileWalk, x float64) { w.icache = x }},
		{"vec", func(w *tileWalk, x float64) { w.vec = x }},
		{"dmaOut", func(w *tileWalk, x float64) { w.dmaOut = x }},
	}
	for _, b := range bad {
		for _, f := range fields {
			for _, overlap := range []bool{false, true} {
				w := base
				w.overlap = overlap
				f.set(&w, b.x)
				if b.perStep && overlap && f.name == "fetch" {
					if !sameBits(t, w) {
						t.Errorf("fetch = %s once: the closed form declined", b.name)
					}
					continue
				}
				if _, _, ok := w.closedForm(); ok {
					t.Errorf("%s = %s (overlap %v): the closed form did not decline", f.name, b.name, overlap)
				}
				sameBits(t, w)
			}
		}
	}
	// The walk's shape out of range declines too.
	for _, w := range []tileWalk{
		{cube: 1, explicit: 0, vecEvery: 1},
		{cube: 1, explicit: maxExplicitSteps + 1, vecEvery: 1},
		{cube: 1, explicit: 8, vecEvery: 0},
	} {
		if _, _, ok := w.closedForm(); ok {
			t.Errorf("%+v: the closed form did not decline", w)
		}
	}
	// The largest window that stays exact is taken.
	edge := tileWalk{cube: (1<<43)/4096 - 1.0/unitsPerCycle, explicit: maxExplicitSteps, vecEvery: 1}
	if !sameBits(t, edge) {
		t.Errorf("%+v: the closed form declined a window below 2⁴³ cycles", edge)
	}
}

// FuzzTileWalk holds window to the loop bit for bit on arbitrary costs and
// shapes, and requires the closed form wherever every cost lies on the unit
// grid within the step bound and the loop ends below 2⁴³ cycles.
func FuzzTileWalk(f *testing.F) {
	f.Add(2.5, 100+1.0/1024, 48.0, 3+1.0/128, 1.25, false, uint16(4095), uint16(8))
	f.Add(1.0, 3.0, 0.0, 400.5, 2.0, true, uint16(20), uint16(2))
	f.Add(1.0/3, 3.0, 0.0, 5.0, 900.25, false, uint16(0), uint16(0))
	f.Add(math.Inf(1), math.NaN(), -1.0, 1e300, 0.0, true, uint16(100), uint16(65535))
	f.Fuzz(func(t *testing.T, fetch, cube, icache, vec, dmaOut float64, overlap bool, explicit, vecEvery uint16) {
		w := tileWalk{fetch: fetch, cube: cube, icache: icache, vec: vec, dmaOut: dmaOut, overlap: overlap,
			explicit: 1 + int(explicit)%maxExplicitSteps, vecEvery: 1 + int(vecEvery)%5000}
		closed := sameBits(t, w)
		onGrid := true
		for _, x := range []float64{fetch, cube, icache, vec, dmaOut} {
			_, ok := toUnits(x)
			onGrid = onGrid && ok
		}
		if _, end, _ := walkByLoop(w); onGrid && end < maxWalkUnits/unitsPerCycle && !closed {
			t.Fatalf("%+v: the closed form declined a window on the grid ending at %v cycles", w, end)
		}
	})
}
