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
	cubeMACs := float64(c.CubeM * c.CubeK * c.CubeN)
	return fixedAreaMM2 + cubeMACs*cubeAreaMM2PerMAC + float64(c.TotalSRAMKB())*sramAreaMM2KB
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

// engineState tracks when each binding engine becomes free (in cycles).
type engineState struct {
	cube, vec, dmaOut float64
}

// Evaluate simulates one layer under schedule m on core c.
func (e Engine) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	if err := l.Validate(); err != nil {
		return ppa.Metrics{}, err
	}
	m = m.Canon(l)
	gm, gk, gn := mapping.GemmDims(l)

	// L0 sub-tile shape: one cube intrinsic worth, rounded up to the cube
	// geometry (padding wastes throughput, as in the real core).
	m0, k0, n0 := c.CubeM, c.CubeK, c.CubeN

	// L0 capacity checks (bytes; fp16 inputs = 1 B in our int8-normal
	// model, fp32 accumulators = 4 B), which are also the stripe residency
	// of one sub-tile below. Double buffering doubles residency and
	// requires >= 2 bank groups to be effective.
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
	fillsA := float64(subM * subK)
	if float64(c.L0AKB)*1024 < float64(subK)*bufA {
		fillsA *= float64(subN)
	}
	fillsB := float64(subK * subN)
	if float64(c.L0BKB)*1024 < float64(subK)*bufB {
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
	explicit := min(totalSteps, maxExplicitSteps)
	// Every per-step cost is finite and >= 0, so each add below lands on
	// the bits a max over all five engines' ready times would.
	fetch := max(dmaACycles, dmaBCycles)
	overlap := m.DBufA && c.L0ABanks >= 2 && m.DBufB && c.L0BBanks >= 2
	warmStep := explicit / 4
	vecEvery := max(tilesK, 1)
	kLeft := vecEvery
	var st engineState
	warmup := 0.0
	for step := 0; step < explicit; step++ {
		if step == 0 || !overlap {
			st.cube += fetch
		}
		st.cube += cubeCycles
		if icachePenalty > 0 {
			st.cube += icachePenalty
		}
		// Vector unit post-processes once the K-reduction of this output
		// tile completes (every tilesK-th step).
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
			warmup = finish(st)
		}
	}
	cycles := finish(st)
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

// finish returns the completion time of the whole pipeline.
func finish(st engineState) float64 {
	return max(st.cube, st.vec, st.dmaOut)
}
