package camodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// referenceState is the five-engine state of referenceEvaluate: the DMA-A and
// DMA-B ready times are carried alongside the cube, vector and DMA-out ones.
type referenceState struct {
	dmaA, dmaB, cube, vec, dmaOut float64
}

// referenceEvaluate is the simulator with explicit ready-time bookkeeping for
// all five engines, kept as the oracle evaluate must match bit for bit: its
// tile loop tracks both DMA ready times and takes the max over every engine
// at each step, where evaluate carries only the chains that can bind.
func (e Engine) referenceEvaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if err := l.Validate(); err != nil {
		return ppa.Metrics{}, err
	}
	m = m.Canon(l)
	gm, gk, gn := mapping.GemmDims(l)

	// L0 sub-tile shape: one cube intrinsic worth, rounded up to the cube
	// geometry (padding wastes throughput, as in the real core).
	m0 := c.CubeM
	k0 := c.CubeK
	n0 := c.CubeN

	// L0 capacity checks (bytes; fp16 inputs = 1 B in our int8-normal
	// model, fp32 accumulators = 4 B). Double buffering doubles residency
	// and requires >= 2 bank groups to be effective.
	bufA := float64(m0 * k0)
	bufB := float64(k0 * n0)
	bufC := 4 * float64(m0*n0)
	if m.DBufA {
		bufA *= 2
	}
	if m.DBufB {
		bufB *= 2
	}
	if m.DBufC {
		bufC *= 2
	}
	if bufA > float64(c.L0AKB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufL0A, need: int(bufA), haveKB: c.L0AKB}
	}
	if bufB > float64(c.L0BKB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufL0B, need: int(bufB), haveKB: c.L0BKB}
	}
	if bufC > float64(c.L0CKB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufL0C, need: int(bufC), haveKB: c.L0CKB}
	}

	// L1 residency: the M×K and K×N tiles plus the output tile, times the
	// depth-first fusion depth (fused layers keep their intermediate line
	// buffers resident).
	tileA := float64(m.TM * m.TK)
	tileB := float64(m.TK * m.TN)
	tileOut := float64(m.TM * m.TN)
	l1Need := (tileA + tileB + tileOut) * float64(m.FuseDepth)
	if l1Need > float64(c.L1KB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufL1, need: int(l1Need), haveKB: c.L1KB, fuse: m.FuseDepth}
	}
	// UB must hold one output tile for vector post-processing.
	if tileOut > float64(c.UBKB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufUB, need: int(tileOut), haveKB: c.UBKB}
	}
	// Parameter buffer holds the per-layer scale/bias vectors (4 B per
	// output channel).
	if 4*float64(l.K) > float64(c.PBKB)*1024 {
		return ppa.Metrics{}, &capacityError{what: bufPB, need: 4 * l.K, haveKB: c.PBKB}
	}

	// Tile trip counts.
	tilesM := int(math.Ceil(float64(gm) / float64(m.TM)))
	tilesK := int(math.Ceil(float64(gk) / float64(m.TK)))
	tilesN := int(math.Ceil(float64(gn) / float64(m.TN)))
	subM := int(math.Ceil(float64(min(m.TM, gm)) / float64(m0)))
	subK := int(math.Ceil(float64(min(m.TK, gk)) / float64(k0)))
	subN := int(math.Ceil(float64(min(m.TN, gn)) / float64(n0)))

	// Per-engine per-step costs (cycles).
	dmaACycles := tileA / ddrBWBytesPerCycle
	dmaBCycles := tileB / ddrBWBytesPerCycle
	// Cube: one intrinsic per cycle when fed; padded sub-tiles still take a
	// full issue. Pipeline depth k0 added once per L1 tile.
	cubeIssues := float64(subM * subK * subN)
	cubeCycles := cubeIssues + float64(k0)
	// L0 fill traffic depends on stripe residency — this is where the L0
	// capacities earn their keep. The cube walks (mi, ni, ki): the A
	// (weight) stripe A[mi, *] is reused across every ni iteration only if
	// L0A holds the whole subK-tile stripe; otherwise each (mi, ni) pair
	// refetches it. Symmetrically the B (activation) stripe B[*, ni] must
	// survive across mi iterations in L0B.
	aSub := float64(m0 * k0)
	bSub := float64(k0 * n0)
	if m.DBufA {
		aSub *= 2
	}
	if m.DBufB {
		bSub *= 2
	}
	fillsA := float64(subM * subK)
	if float64(c.L0AKB)*1024 < float64(subK)*aSub {
		fillsA *= float64(subN)
	}
	fillsB := float64(subK * subN)
	if float64(c.L0BKB)*1024 < float64(subK)*bSub {
		fillsB *= float64(subM)
	}
	l0FillA := fillsA * float64(m0*k0) / l1BWBytesPerCycle
	l0FillB := fillsB * float64(k0*n0) / l1BWBytesPerCycle
	// Double buffering (with >= 2 bank groups) overlaps fills with compute,
	// leaving only the bank-arbitration share exposed; otherwise the fill
	// serializes with the cube.
	if !m.DBufA || c.L0ABanks < 2 {
		cubeCycles += l0FillA
	} else {
		cubeCycles += l0FillA / float64(2*c.L0ABanks)
	}
	if !m.DBufB || c.L0BBanks < 2 {
		cubeCycles += l0FillB
	} else {
		cubeCycles += l0FillB / float64(2*c.L0BBanks)
	}
	// Vector post-processing of each output tile.
	vecBW := vecBytesPerCycle
	if c.UBKB >= 256 {
		vecBW *= 2
	}
	vecCycles := tileOut / vecBW
	// L0C drain to UB: serialized unless L0C double buffers.
	if !m.DBufC || c.L0CBanks < 2 {
		vecCycles += bufC / l1BWBytesPerCycle
	}
	// Partial-sum spills: when the reduction is split across L1 tiles
	// (tilesK > 1) and L0C cannot hold the live accumulators, every output
	// tile round-trips through the vector path once more per K tile.
	cResident := float64(c.L0CKB)*1024 >= min(float64(subM*subN), 64)*bufC
	drainFactor := 1.0
	if tilesK > 1 && !cResident {
		drainFactor = float64(tilesK)
	}
	vecCycles *= drainFactor
	dmaOutCycles := tileOut / ddrBWBytesPerCycle
	// Instruction-cache misses: the fused inner-loop body grows with fusion
	// depth; a body larger than the ICache stalls each tile step.
	bodyKB := 4.0 * float64(m.FuseDepth)
	icachePenalty := 0.0
	if bodyKB > float64(c.ICacheKB) {
		icachePenalty = 48 * (bodyKB - float64(c.ICacheKB))
	}

	// Explicit simulation with steady-state extrapolation.
	totalSteps := tilesM * tilesN * tilesK
	explicit := totalSteps
	if explicit > maxExplicitSteps {
		explicit = maxExplicitSteps
	}
	var st referenceState
	var now float64
	warmup := 0.0
	for step := 0; step < explicit; step++ {
		// DMA engines fetch the next A/B tiles.
		aReady := max(st.dmaA, now) + dmaACycles
		bReady := max(st.dmaB, now) + dmaBCycles
		st.dmaA, st.dmaB = aReady, bReady
		// Cube starts when operands are in and the unit is free; with
		// double buffering the fetch of step s+1 overlaps compute of s,
		// modeled by letting the DMA ready times lag one step behind.
		start := max(st.cube, aReady, bReady)
		if m.DBufA && c.L0ABanks >= 2 && m.DBufB && c.L0BBanks >= 2 && step > 0 {
			start = max(st.cube, now)
		}
		st.cube = start + cubeCycles + icachePenalty
		// Vector unit post-processes once the K-reduction of this output
		// tile completes (every tilesK-th step).
		if (step+1)%max(tilesK, 1) == 0 {
			st.vec = max(st.vec, st.cube) + vecCycles
			st.dmaOut = max(st.dmaOut, st.vec) + dmaOutCycles
		}
		now = st.cube
		if step == explicit/4 {
			warmup = referenceFinish(st)
		}
	}
	cycles := referenceFinish(st)
	if totalSteps > explicit {
		// Steady-state rate from the post-warmup window.
		window := float64(explicit - explicit/4)
		rate := (cycles - warmup) / window
		cycles += rate * float64(totalSteps-explicit)
	}

	// Depth-first fusion divides the DDR activation traffic: intermediate
	// tiles of fused layers never round-trip to DDR.
	fuse := float64(m.FuseDepth)
	inBytes := float64(l.InputBytes()) / fuse
	outBytes := float64(l.OutputBytes()) / fuse
	wBytes := float64(l.WeightBytes()) * math.Ceil(float64(tilesM)/8) // weight refetch per M stripe group
	ddrBytes := inBytes + outBytes + wBytes
	ddrCycles := ddrBytes / ddrBWBytesPerCycle
	cycles = max(cycles, ddrCycles)

	latencyMs := cycles / (clockGHz * 1e6)

	usefulMACs := float64(l.MACs())
	// L0 traffic is the residency-dependent fill volume plus the cube's
	// register-file share; undersized L0 stripes therefore cost energy as
	// well as stall cycles.
	l0Bytes := float64(totalSteps)*(fillsA*float64(m0*k0)+fillsB*float64(k0*n0)) +
		usefulMACs*0.2
	l1Bytes := float64(tilesM*tilesK*tilesN) * (tileA + tileB)
	energyPJ := usefulMACs*macEnergyPJ + l0Bytes*l0EnergyPJ + l1Bytes*l1EnergyPJ + ddrBytes*ddrEnergyPJ
	energyUJ := energyPJ * 1e-6
	leak := float64(c.TotalSRAMKB())*sramLeakMWKB + float64(c.CubeM*c.CubeK*c.CubeN)*0.02
	powerMW := energyUJ/latencyMs + leak
	energyUJ += leak * latencyMs

	met := ppa.Metrics{
		LatencyMs: latencyMs,
		PowerMW:   powerMW,
		AreaMM2:   e.Area(c),
		EnergyUJ:  energyUJ,
	}
	if !met.Valid() {
		return ppa.Metrics{}, fmt.Errorf("camodel: produced invalid metrics %+v for %v / %v", met, c, l)
	}
	return met, nil
}

// referenceFinish returns the completion time of the whole pipeline.
func referenceFinish(st referenceState) float64 {
	return max(st.cube, st.vec, st.dmaOut)
}

// sameOutcome reports whether two Evaluate outcomes agree bit for bit: the
// same error text, or every metric with the same bits.
func sameOutcome(a ppa.Metrics, aerr error, b ppa.Metrics, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return math.Float64bits(a.LatencyMs) == math.Float64bits(b.LatencyMs) &&
		math.Float64bits(a.PowerMW) == math.Float64bits(b.PowerMW) &&
		math.Float64bits(a.AreaMM2) == math.Float64bits(b.AreaMM2) &&
		math.Float64bits(a.EnergyUJ) == math.Float64bits(b.EnergyUJ)
}

// tileSteps returns the tile-step count of the schedule's walk and its K
// tile count: the loop's trip count before the maxExplicitSteps cap.
func tileSteps(m mapping.Ascend, l workload.Layer) (total, tilesK int) {
	m = m.Canon(l)
	gm, gk, gn := mapping.GemmDims(l)
	ceil := func(a, b int) int { return (a + b - 1) / b }
	tilesK = ceil(gk, m.TK)
	return ceil(gm, m.TM) * tilesK * ceil(gn, m.TN), tilesK
}

// loopBranches names the branches of the tile loop that a feasible triple
// takes.
func loopBranches(c hw.Ascend, m mapping.Ascend, l workload.Layer) []string {
	m = m.Canon(l)
	total, tilesK := tileSteps(m, l)
	explicit := min(total, maxExplicitSteps)
	var out []string
	if m.DBufA && c.L0ABanks >= 2 && m.DBufB && c.L0BBanks >= 2 {
		out = append(out, "overlap")
	} else {
		out = append(out, "serial")
	}
	switch {
	case tilesK == 1:
		out = append(out, "tilesK=1")
	case (explicit/4)%tilesK != 0:
		out = append(out, "tilesK>1 not dividing explicit/4")
	default:
		out = append(out, "tilesK>1 dividing explicit/4")
	}
	switch {
	case total < maxExplicitSteps:
		out = append(out, "steps<cap")
	case total == maxExplicitSteps:
		out = append(out, "steps=cap")
	default:
		out = append(out, "steps>cap")
	}
	if 4*m.FuseDepth > c.ICacheKB {
		out = append(out, "icache>0")
	} else {
		out = append(out, "icache=0")
	}
	switch {
	case m.DBufC && c.L0CBanks < 2:
		out = append(out, "DBufC, 1 L0C bank")
	case m.DBufC:
		out = append(out, "DBufC, >=2 L0C banks")
	}
	return out
}

// gemmLayer is the GEMM whose GEMM-normal dimensions are (gm, gk, gn).
func gemmLayer(gm, gk, gn int) workload.Layer {
	return workload.Gemm("g", gn, gk, gm, 1)
}

// TestEvaluateMatchesReference holds Evaluate to referenceEvaluate bit for
// bit, over a grid built to reach every branch of the tile loop and over
// seeded random triples, and counts the branches each reached. Every
// feasible triple must take the closed form: a guard that declined them all
// would pass on the loop's bits, only slower.
// It fails, for example, when the fetch is added on overlapped steps too,
// or when the K countdown starts at tilesK-1.
func TestEvaluateMatchesReference(t *testing.T) {
	var e Engine
	hits := map[string]int{}
	check := func(c hw.Ascend, m mapping.Ascend, l workload.Layer) {
		t.Helper()
		got, gotErr := e.Evaluate(c, m, l)
		want, wantErr := e.referenceEvaluate(c, m, l)
		if !sameOutcome(got, gotErr, want, wantErr) {
			t.Fatalf("Evaluate(%v, %+v, %v) = %+v, %v; reference %+v, %v", c, m, l, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			for _, b := range loopBranches(c, m, l) {
				hits[b]++
			}
			b := e.Bind(c)
			if _, closed, _ := b.model(m.Canon(l), &l); closed {
				hits["closed form"]++
			} else {
				t.Errorf("Evaluate(%v, %+v, %s) walked the loop", c, m, l.Name)
			}
		}
	}

	// (gm, gk, gn) in cube tiles of 16: 21 steps with tilesK 3 (5 = 21/4
	// is not a multiple of 3), 16 with tilesK 1, 4096 with tilesK 16,
	// 8192 with tilesK 1 and 12288 with tilesK 3 (3 does not divide 1024).
	shapes := [][3]int{{7, 3, 1}, {4, 1, 4}, {16, 16, 16}, {128, 1, 64}, {64, 3, 64}}
	for _, sh := range shapes {
		l := gemmLayer(16*sh[0], 16*sh[1], 16*sh[2])
		for _, banks := range []int{1, 2} {
			for _, icacheKB := range []int{32, 8} {
				for _, dbuf := range []bool{false, true} {
					c := hw.DefaultAscend()
					c.L0ABanks, c.L0BBanks, c.L0CBanks = 2, 2, banks
					c.ICacheKB = icacheKB
					m := mapping.Ascend{TM: 16, TK: 16, TN: 16, FuseDepth: 3,
						DBufA: dbuf, DBufB: dbuf, DBufC: true}
					check(c, m, l)
				}
			}
		}
	}

	space, layers := hw.NewAscendSpace(), zooLayers()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		tr := drawTriple(rng, space, layers, i)
		check(tr.c, tr.m, tr.l)
	}

	want := []string{"overlap", "serial", "tilesK=1", "tilesK>1 not dividing explicit/4",
		"tilesK>1 dividing explicit/4", "steps<cap", "steps=cap", "steps>cap",
		"icache>0", "icache=0", "DBufC, 1 L0C bank", "DBufC, >=2 L0C banks", "closed form"}
	for _, b := range want {
		if hits[b] == 0 {
			t.Errorf("no feasible triple took branch %q", b)
		}
	}
	names := make([]string, 0, len(hits))
	for b := range hits {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		t.Logf("%-34s %6d", b, hits[b])
	}
}

// FuzzEvaluate holds Evaluate to referenceEvaluate bit for bit on any core
// of the design space (one byte per axis picks its value), any schedule
// fields (Canon clamps them) and any zoo layer.
func FuzzEvaluate(f *testing.F) {
	f.Add([]byte{2, 3, 6, 3, 3, 2, 2, 0, 0, 1, 3, 2, 3}, uint16(56), uint16(25), uint16(4096), uint8(2), uint8(3), uint16(0))
	f.Add([]byte{6, 6, 6, 5, 5, 3, 0, 1, 1, 0, 0, 0, 0}, uint16(1), uint16(1), uint16(1), uint8(4), uint8(7), uint16(77))
	space, layers := hw.NewAscendSpace(), zooLayers()
	var e Engine
	f.Fuzz(func(t *testing.T, core []byte, tm, tk, tn uint16, fuse, dbuf uint8, layer uint16) {
		// Byte i picks axis i's value: b mod 7, spread over [0,1] and
		// snapped to the axis's levels (at most 7).
		x := make([]float64, space.Dim())
		for i := range x {
			var b byte
			if i < len(core) {
				b = core[i]
			}
			x[i] = (float64(b%7) + 0.5) / 7
		}
		c := space.Decode(x)
		l := layers[int(layer)%len(layers)]
		m := mapping.Ascend{TM: int(tm), TK: int(tk), TN: int(tn), FuseDepth: int(fuse),
			DBufA: dbuf&1 != 0, DBufB: dbuf&2 != 0, DBufC: dbuf&4 != 0}
		got, gotErr := e.Evaluate(c, m, l)
		want, wantErr := e.referenceEvaluate(c, m, l)
		if !sameOutcome(got, gotErr, want, wantErr) {
			t.Fatalf("Evaluate(%v, %+v, %s) = %+v, %v; reference %+v, %v", c, m, l.Name, got, gotErr, want, wantErr)
		}
	})
}
