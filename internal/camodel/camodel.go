// Package camodel implements a cycle-level simulator of an Ascend/DaVinci-
// like accelerator core, standing in for the proprietary cycle-accurate
// model (CAModel) the paper uses for its industrial case study (Sections 4.1
// and 4.6).
//
// The simulated core follows the DaVinci organization [42]: a 3D cube unit
// executing an M×K×N matrix intrinsic per issue, fed by the L0A (left
// operand) and L0B (right operand) buffers, accumulating into L0C; an L1
// staging buffer between DDR and the L0s; a unified vector buffer (UB) for
// the post-processing vector unit; a parameter buffer and an instruction
// cache. Execution is simulated tile by tile over five engines (DMA-A,
// DMA-B, cube, vector, DMA-out), each modelled by its per-step cost: double
// buffering overlaps a tile's loads with the previous tile's compute only
// when the corresponding L0 buffer has at least two bank groups and the
// mapping enables it, exactly the interaction the paper's search discovers
// (shrinking L0B/L0C and growing L0A). Only the cube, vector and DMA-out
// ready times are carried: a fetch for step s starts when the cube finishes
// step s-1, after the engine's previous fetch, so a DMA ready time never
// binds. The longer fetch is one more add on the cube chain, on every step
// without that overlap and on step 0 with it.
//
// Long-running layers are simulated explicitly for a bounded number of tile
// steps and extrapolated at the observed steady-state rate afterwards — the
// standard sampling technique of fast cycle-accurate models. The simulated
// wall-clock charge per evaluation (minutes, versus sub-second for the
// analytical model) reproduces the cost asymmetry of paper Section 4.1.
//
// The explicit window is a max-plus recurrence over constant per-step
// costs, so it is computed in closed form rather than walked (tileWalk):
// the cube chain grows linearly, and the vector and DMA-out chains each
// take the larger of their two endpoint terms. The closed form gives the
// walk's bits exactly. Every per-step cost of a core is a whole multiple of
// 2⁻¹⁰ cycles (tile bytes over 64 or 128, fills over 128·2·banks with banks
// of 1, 2 or 4, whole cube issues and penalties), and a float64 sum of such
// values below 2⁴³ cycles rounds nowhere, so the walk adds exactly what the
// closed form computes in integer units of 2⁻¹⁰ cycles. When a cost is off
// that grid, or a sum could reach 2⁴³ cycles, the step-by-step walk runs
// instead.
//
// Every product that feeds a sum is rounded by an explicit float64
// conversion, so no architecture fuses it into a multiply-add and one
// triple gives the same bits on every GOARCH.
package camodel

import (
	"errors"
	"fmt"
	"math"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// ErrInfeasible reports a schedule that violates a buffer capacity on the
// given core configuration.
var ErrInfeasible = errors.New("camodel: schedule infeasible on core")

// Technology constants of the synthetic process; see the package comment of
// internal/maestro for calibration rationale.
const (
	clockGHz = 1.5

	ddrBWBytesPerCycle = 64.0 // DDR <-> L1
	l1BWBytesPerCycle  = 128.0
	vecBytesPerCycle   = 64.0 // vector unit throughput at UB < 256 KB

	macEnergyPJ  = 0.7
	l0EnergyPJ   = 0.6
	l1EnergyPJ   = 2.2
	ddrEnergyPJ  = 110.0
	sramLeakMWKB = 0.012

	cubeAreaMM2PerMAC = 0.0030
	sramAreaMM2KB     = 0.045
	fixedAreaMM2      = 18.0 // scalar unit, vector unit, DMA engines, NoC

	// maxExplicitSteps bounds the explicitly simulated tile steps before
	// steady-state extrapolation takes over.
	maxExplicitSteps = 4096
)

// Engine is the cycle-level PPA estimator for the Ascend-like core.
type Engine struct {
	// EvalSeconds is the simulated wall-clock cost of one Evaluate call.
	// Zero means the default of 150 s, inside the paper's 2-10 minute range.
	EvalSeconds float64
}

// EvalCostSeconds returns the simulated cost of one evaluation.
func (e Engine) EvalCostSeconds() float64 {
	if e.EvalSeconds > 0 {
		return e.EvalSeconds
	}
	return 150
}

// Area returns the core area in mm².
func (Engine) Area(c hw.Ascend) float64 {
	return area(float64(c.CubeM*c.CubeK*c.CubeN), float64(c.TotalSRAMKB()))
}

// area is the area of a core with cubeMACs MACs and sramKB KB of SRAM.
func area(cubeMACs, sramKB float64) float64 {
	return fixedAreaMM2 + float64(cubeMACs*cubeAreaMM2PerMAC) + float64(sramKB*sramAreaMM2KB)
}

// capacityError is the ErrInfeasible of a schedule that overflows one of the
// core's buffers. A schedule search rejects thousands of these per candidate
// and reads none of them, so the text is formatted only when Error is called,
// and the struct holds integers only — the buffer is an index into
// bufferNames — so a rejection allocates nothing the GC must scan.
type capacityError struct {
	what   buffer
	need   int // bytes
	haveKB int
	fuse   int // fusion depth, reported for L1 only
}

// buffer names one of the core's buffers in a capacityError.
type buffer uint8

const (
	bufL0A buffer = iota
	bufL0B
	bufL0C
	bufL1
	bufUB
	bufPB
)

var bufferNames = [...]string{bufL0A: "L0A", bufL0B: "L0B", bufL0C: "L0C", bufL1: "L1", bufUB: "UB", bufPB: "PB"}

func (e *capacityError) Error() string {
	if e.what == bufL1 {
		return fmt.Sprintf("%v: L1 needs %d B > %d KB (fuse=%d)", ErrInfeasible, e.need, e.haveKB, e.fuse)
	}
	return fmt.Sprintf("%v: %s needs %d B > %d KB", ErrInfeasible, bufferNames[e.what], e.need, e.haveKB)
}

func (e *capacityError) Unwrap() error { return ErrInfeasible }

// Bound is the model with one core configuration's schedule-independent
// part worked out: the buffer capacities in bytes, the vector bandwidth,
// the area and the leakage. A schedule search builds it once per job
// (Engine.Bind) and evaluates every candidate through it; Engine.Evaluate
// binds per call and runs the same arithmetic.
type Bound struct {
	c                                    hw.Ascend
	l0aCap, l0bCap, l0cCap, l1Cap, ubCap float64 // bytes
	pbCap, icacheKB                      float64
	vecBW                                float64 // bytes/cycle
	leak, area                           float64 // mW, mm²
}

// Bind works out the schedule-independent part of the model for core c.
func (e Engine) Bind(c hw.Ascend) Bound {
	var b Bound
	b.bind(&c)
	return b
}

// bind fills b in for core c, in place: Engine.Evaluate binds per call, and
// a Bound is too large to copy for free.
func (b *Bound) bind(c *hw.Ascend) {
	b.c = *c
	b.l0aCap = float64(c.L0AKB) * 1024
	b.l0bCap = float64(c.L0BKB) * 1024
	b.l0cCap = float64(c.L0CKB) * 1024
	b.l1Cap = float64(c.L1KB) * 1024
	b.ubCap = float64(c.UBKB) * 1024
	b.pbCap = float64(c.PBKB) * 1024
	b.icacheKB = float64(c.ICacheKB)
	b.vecBW = vecBytesPerCycle
	if c.UBKB >= 256 {
		b.vecBW *= 2
	}
	cubeMACs, sramKB := float64(c.CubeM*c.CubeK*c.CubeN), float64(c.TotalSRAMKB())
	b.leak = float64(sramKB*sramLeakMWKB) + float64(cubeMACs*0.02)
	b.area = area(cubeMACs, sramKB)
}

// Evaluate simulates one layer under schedule m on core c.
func (e Engine) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if err := l.Validate(); err != nil {
		return ppa.Metrics{}, err
	}
	m = m.Canon(l)
	var b Bound
	b.bind(&c)
	return b.Evaluate(m, &l)
}

// Evaluate simulates layer l under schedule m on the bound core. l must
// validate (workload.Layer.Validate) and m must be canonical for it
// (mapping.Ascend.Canon): Engine.Evaluate checks and canonicalizes, this
// does neither.
func (b *Bound) Evaluate(m mapping.Ascend, l *workload.Layer) (ppa.Metrics, error) {
	met, _, err := b.model(m, l)
	return met, err
}

// model is the one implementation of the model's arithmetic. It also
// reports whether the explicit window took the closed form.
func (b *Bound) model(m mapping.Ascend, l *workload.Layer) (ppa.Metrics, bool, error) {
	c := &b.c
	gm, gk, gn := mapping.GemmDims(*l)

	// L0 sub-tile shape: one cube intrinsic worth, rounded up to the cube
	// geometry (padding wastes throughput, as in the real core).
	m0, k0, n0 := c.CubeM, c.CubeK, c.CubeN

	// L0 capacity checks (bytes; fp16 inputs = 1 B in our int8-normal
	// model, fp32 accumulators = 4 B), which are also the stripe residency
	// of one sub-tile below. Double buffering doubles residency and
	// requires >= 2 bank groups to be effective.
	bufA := float64(m0 * k0)
	bufB := float64(k0 * n0)
	bufC := float64(4 * float64(m0*n0))
	if m.DBufA {
		bufA *= 2
	}
	if m.DBufB {
		bufB *= 2
	}
	if m.DBufC {
		bufC *= 2
	}
	if bufA > b.l0aCap {
		return ppa.Metrics{}, false, &capacityError{what: bufL0A, need: int(bufA), haveKB: c.L0AKB}
	}
	if bufB > b.l0bCap {
		return ppa.Metrics{}, false, &capacityError{what: bufL0B, need: int(bufB), haveKB: c.L0BKB}
	}
	if bufC > b.l0cCap {
		return ppa.Metrics{}, false, &capacityError{what: bufL0C, need: int(bufC), haveKB: c.L0CKB}
	}

	// L1 residency: the M×K and K×N tiles plus the output tile, times the
	// depth-first fusion depth (fused layers keep their intermediate line
	// buffers resident).
	tileA := float64(m.TM * m.TK)
	tileB := float64(m.TK * m.TN)
	tileOut := float64(m.TM * m.TN)
	l1Need := (tileA + tileB + tileOut) * float64(m.FuseDepth)
	if l1Need > b.l1Cap {
		return ppa.Metrics{}, false, &capacityError{what: bufL1, need: int(l1Need), haveKB: c.L1KB, fuse: m.FuseDepth}
	}
	// UB must hold one output tile for vector post-processing.
	if tileOut > b.ubCap {
		return ppa.Metrics{}, false, &capacityError{what: bufUB, need: int(tileOut), haveKB: c.UBKB}
	}
	// Parameter buffer holds the per-layer scale/bias vectors (4 B per
	// output channel).
	if 4*float64(l.K) > b.pbCap {
		return ppa.Metrics{}, false, &capacityError{what: bufPB, need: 4 * l.K, haveKB: c.PBKB}
	}

	// Tile trip counts.
	tilesM := int(math.Ceil(float64(gm) / float64(m.TM)))
	tilesK := int(math.Ceil(float64(gk) / float64(m.TK)))
	tilesN := int(math.Ceil(float64(gn) / float64(m.TN)))
	subM := int(math.Ceil(float64(min(m.TM, gm)) / float64(m0)))
	subK := int(math.Ceil(float64(min(m.TK, gk)) / float64(k0)))
	subN := int(math.Ceil(float64(min(m.TN, gn)) / float64(n0)))

	// Per-engine per-step costs (cycles).
	dmaACycles := float64(tileA / ddrBWBytesPerCycle)
	dmaBCycles := float64(tileB / ddrBWBytesPerCycle)
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
	fillsA := float64(subM * subK)
	if b.l0aCap < float64(subK)*bufA {
		fillsA *= float64(subN)
	}
	fillsB := float64(subK * subN)
	if b.l0bCap < float64(subK)*bufB {
		fillsB *= float64(subM)
	}
	l0FillA := float64(fillsA * float64(m0*k0) / l1BWBytesPerCycle)
	l0FillB := float64(fillsB * float64(k0*n0) / l1BWBytesPerCycle)
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
	vecCycles := tileOut / b.vecBW
	// L0C drain to UB: serialized unless L0C double buffers.
	if !m.DBufC || c.L0CBanks < 2 {
		vecCycles += float64(bufC / l1BWBytesPerCycle)
	}
	// Partial-sum spills: when the reduction is split across L1 tiles
	// (tilesK > 1) and L0C cannot hold the live accumulators, every output
	// tile round-trips through the vector path once more per K tile.
	cResident := b.l0cCap >= min(float64(subM*subN), 64)*bufC
	drainFactor := 1.0
	if tilesK > 1 && !cResident {
		drainFactor = float64(tilesK)
	}
	vecCycles = float64(vecCycles * drainFactor)
	dmaOutCycles := float64(tileOut / ddrBWBytesPerCycle)
	// Instruction-cache misses: the fused inner-loop body grows with fusion
	// depth; a body larger than the ICache stalls each tile step.
	bodyKB := float64(4.0 * float64(m.FuseDepth))
	icachePenalty := 0.0
	if bodyKB > b.icacheKB {
		icachePenalty = float64(48 * (bodyKB - b.icacheKB))
	}

	// Explicit simulation with steady-state extrapolation.
	totalSteps := tilesM * tilesN * tilesK
	explicit := min(totalSteps, maxExplicitSteps)
	w := tileWalk{
		fetch: max(dmaACycles, dmaBCycles), cube: cubeCycles, icache: icachePenalty,
		vec: vecCycles, dmaOut: dmaOutCycles,
		overlap:  m.DBufA && c.L0ABanks >= 2 && m.DBufB && c.L0BBanks >= 2,
		explicit: explicit, vecEvery: max(tilesK, 1),
	}
	warmup, cycles, closed := w.window()
	if totalSteps > explicit {
		// Steady-state rate from the post-warmup window.
		window := float64(explicit - explicit/4)
		rate := (cycles - warmup) / window
		cycles += float64(rate * float64(totalSteps-explicit))
	}

	// Depth-first fusion divides the DDR activation traffic: intermediate
	// tiles of fused layers never round-trip to DDR.
	fuse := float64(m.FuseDepth)
	inBytes := float64(l.InputBytes()) / fuse
	outBytes := float64(l.OutputBytes()) / fuse
	wBytes := float64(float64(l.WeightBytes()) * math.Ceil(float64(tilesM)/8)) // weight refetch per M stripe group
	ddrBytes := inBytes + outBytes + wBytes
	ddrCycles := ddrBytes / ddrBWBytesPerCycle
	cycles = max(cycles, ddrCycles)

	latencyMs := cycles / (clockGHz * 1e6)

	usefulMACs := float64(l.MACs())
	// L0 traffic is the residency-dependent fill volume plus the cube's
	// register-file share; undersized L0 stripes therefore cost energy as
	// well as stall cycles.
	fillBytes := float64(fillsA*float64(m0*k0)) + float64(fillsB*float64(k0*n0))
	l0Bytes := float64(float64(totalSteps)*fillBytes) + float64(usefulMACs*0.2)
	l1Bytes := float64(tilesM*tilesK*tilesN) * (tileA + tileB)
	energyPJ := float64(usefulMACs*macEnergyPJ) + float64(l0Bytes*l0EnergyPJ) +
		float64(l1Bytes*l1EnergyPJ) + float64(ddrBytes*ddrEnergyPJ)
	energyUJ := float64(energyPJ * 1e-6)
	powerMW := energyUJ/latencyMs + b.leak
	energyUJ += float64(b.leak * latencyMs)

	met := ppa.Metrics{
		LatencyMs: latencyMs,
		PowerMW:   powerMW,
		AreaMM2:   b.area,
		EnergyUJ:  energyUJ,
	}
	if !met.Valid() {
		return ppa.Metrics{}, closed, fmt.Errorf("camodel: produced invalid metrics %+v for %v / %v", met, *c, *l)
	}
	return met, closed, nil
}

// tileWalk is the explicit window of one simulation: explicit tile steps,
// each adding the fetch (on every step, or only on step 0 when the loads
// overlap compute), the cube's cost and the i-cache penalty to the cube
// chain, and every vecEvery-th step — when an output tile's K-reduction
// completes — running the vector unit and then DMA-out behind it.
type tileWalk struct {
	fetch, cube, icache, vec, dmaOut float64 // cycles per step
	overlap                          bool
	explicit, vecEvery               int
}

// window returns the pipeline's completion time after step explicit/4
// (the warm-up sample) and after the last step, and whether the closed form
// computed them.
func (w *tileWalk) window() (warmup, cycles float64, closed bool) {
	if warmup, cycles, ok := w.closedForm(); ok {
		return warmup, cycles, true
	}
	warmup, cycles = w.loop()
	return warmup, cycles, false
}

// Units of the closed form: 2⁻¹⁰ cycles, the grid every per-step cost of a
// core lies on.
const (
	unitsPerCycle = 1024
	// maxStepUnits bounds each per-step cost so no product of the closed
	// form overflows: a step adds at most three costs, and a window has at
	// most 2¹² steps, so every term stays below 3·2¹²·2⁴⁸ < 2⁶².
	maxStepUnits = 1 << 48
	// maxWalkUnits is 2⁴³ cycles: below it every float64 sum of the walk is
	// exact, since a multiple of 2⁻¹⁰ below 2⁴³ has at most 53 significant
	// bits.
	maxWalkUnits = 1 << 53
)

// toUnits returns x in units, and false if x is not a whole number of
// units in [0, maxStepUnits] (NaN and ±Inf included). The conversion of an
// out-of-range u yields some int64 that either does not convert back to u
// or fails the bound, whatever the architecture.
func toUnits(x float64) (int64, bool) {
	u := x * unitsPerCycle
	n := int64(u)
	return n, float64(n) == u && uint64(n) <= maxStepUnits
}

// closedForm returns window's two times computed in units without walking,
// or false when a cost is off the unit grid or the completion time reaches
// maxWalkUnits, where the walk's float64 sums could round.
//
// With d the cube chain's cost per step and e the fetch it pays once (on
// step 0, under overlap), the cube finishes step s at (s+1)·d + e. The
// vector unit runs after steps jV-1 (V = vecEvery) for j = 1, 2, …; its
// j-th run ends at the largest of cube_i + (j-i+1)·vec over i ≤ j, a
// linear function of i, so at i = 1 or i = j. DMA-out's j-th run ends at
// the largest of vec_i + (j-i+1)·dmaOut, a convex function of i, so
// likewise at an endpoint.
func (w *tileWalk) closedForm() (warmup, cycles float64, ok bool) {
	if w.explicit < 1 || w.explicit > maxExplicitSteps || w.vecEvery < 1 {
		return 0, 0, false
	}
	fetch, ok1 := toUnits(w.fetch)
	cube, ok2 := toUnits(w.cube)
	icache, ok3 := toUnits(w.icache)
	vec, ok4 := toUnits(w.vec)
	dmaOut, ok5 := toUnits(w.dmaOut)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return 0, 0, false
	}
	u := walkUnits{d: cube + icache, vec: vec, dmaOut: dmaOut, v: int64(w.vecEvery)}
	if w.overlap {
		u.e = fetch
	} else {
		u.d += fetch
	}
	end := u.finish(int64(w.explicit))
	if end >= maxWalkUnits {
		return 0, 0, false
	}
	warm := u.finish(int64(w.explicit/4 + 1))
	return float64(float64(warm) / unitsPerCycle), float64(float64(end) / unitsPerCycle), true
}

// walkUnits is a tileWalk in units: d is the cube chain's cost per step, e
// the fetch paid once, v the steps per vector run.
type walkUnits struct {
	d, e, vec, dmaOut, v int64
}

// finish returns the pipeline's completion time after n steps.
func (u *walkUnits) finish(n int64) int64 {
	at := n*u.d + u.e
	if n >= u.v {
		// n is at most 2¹², so the vector runs j take a 32-bit division.
		j := int64(uint32(n) / uint32(u.v))
		first := u.v*u.d + u.e // the cube at the first vector run
		vecJ := max(j*u.v*u.d+u.e+u.vec, first+j*u.vec)
		dmaJ := max(vecJ+u.dmaOut, first+u.vec+j*u.dmaOut)
		at = max(at, vecJ, dmaJ)
	}
	return at
}

// loop walks the window step by step: the arithmetic closedForm reproduces
// on its grid, and the fallback off it.
func (w *tileWalk) loop() (warmup, cycles float64) {
	// Every per-step cost is finite and >= 0, so each add below lands on
	// the bits a max over all five engines' ready times would.
	var cube, vec, dmaOut float64
	warmStep := w.explicit / 4
	kLeft := w.vecEvery
	for step := 0; step < w.explicit; step++ {
		if step == 0 || !w.overlap {
			cube += w.fetch
		}
		cube += w.cube
		if w.icache > 0 {
			cube += w.icache
		}
		// Vector unit post-processes once the K-reduction of this output
		// tile completes (every vecEvery-th step).
		kLeft--
		if kLeft == 0 {
			kLeft = w.vecEvery
			if cube > vec {
				vec = cube
			}
			vec += w.vec
			if vec > dmaOut {
				dmaOut = vec
			}
			dmaOut += w.dmaOut
		}
		if step == warmStep {
			warmup = max(cube, vec, dmaOut)
		}
	}
	return warmup, max(cube, vec, dmaOut)
}
