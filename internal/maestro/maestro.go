// Package maestro implements an analytical power-performance-area model of
// the open-source 2D spatial accelerator, in the spirit of MAESTRO [35]: a
// data-centric reuse analysis over the tiled 7D convolution nest.
//
// The model reproduces the structure of MAESTRO's estimates rather than its
// exact numbers (which depend on proprietary technology tables):
//
//   - Latency is the maximum of compute, NoC and DRAM stream times per the
//     perfect double-buffering assumption analytical models make.
//   - Compute time counts per-PE tile steps including the ceil-division
//     padding losses, so under-utilized arrays are penalized naturally.
//   - Memory traffic is derived from operand dependence sets: an operand is
//     refetched once per trip of every loop it does not depend on, unless
//     the dataflow pins it (weight-stationary pins weights in L1,
//     output-stationary pins partial sums) or it fits wholly in L2.
//   - Energy integrates per-byte access costs at each hierarchy level plus
//     per-MAC compute energy; power adds capacity-proportional leakage.
//   - Area sums PE, SRAM and NoC contributions.
//
// Mappings whose tiles do not fit their buffers are rejected with an error;
// the search layers treat such mappings as infeasible.
package maestro

import (
	"errors"
	"fmt"
	"math"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// ErrInfeasible reports a mapping that violates a buffer capacity constraint
// on the given hardware.
var ErrInfeasible = errors.New("maestro: mapping infeasible on hardware")

// Technology constants of the synthetic 28nm-class process the model
// assumes. Only relative magnitudes matter for the co-search: DRAM ≫ L2 ≫ L1
// per-byte energy, SRAM leakage proportional to capacity, and PE-array
// compute power that can breach the 2 W edge cap for the largest arrays.
const (
	ClockGHz = 1.0 // core clock

	macEnergyPJ  = 2.0   // energy per int8 MAC
	l1EnergyPJ   = 1.1   // per byte moved between L1 and a PE
	l2EnergyPJ   = 6.0   // per byte moved between L2 and L1 (incl. NoC)
	dramEnergyPJ = 120.0 // per byte moved between DRAM and L2

	peLeakMW     = 0.04  // leakage per PE
	sramLeakMWKB = 0.009 // leakage per KB of on-chip SRAM

	peAreaMM2     = 0.014  // area per PE (MAC + register file + control)
	sramAreaMM2KB = 0.0045 // area per KB of SRAM
	nocAreaMM2PE  = 0.0006 // NoC router area per PE at 64 B/cycle

	dramBWBytesPerCycle = 16.0 // off-chip bandwidth

	// l1RegReuse discounts L1→PE traffic for register-level reuse of the
	// unrolled R×S kernel window (each operand byte feeds several MACs).
	l1RegReuse = 0.35
)

// Engine is the analytical PPA estimator. The zero value is ready to use;
// EvalSeconds may be overridden to change the simulated per-evaluation cost.
type Engine struct {
	// EvalSeconds is the simulated wall-clock cost of one Evaluate call,
	// matching the paper's "analytical models output PPA in order of
	// milliseconds-to-seconds". Zero means the default of 80 ms.
	EvalSeconds float64
}

// EvalCostSeconds returns the simulated cost of one evaluation.
func (e Engine) EvalCostSeconds() float64 {
	if e.EvalSeconds > 0 {
		return e.EvalSeconds
	}
	return 0.08
}

// Area returns the silicon area of a configuration in mm². Area depends only
// on the hardware, not on the mapping or workload.
func (Engine) Area(c hw.Spatial) float64 {
	totalL1KB := float64(c.PEs()) * float64(c.L1Bytes) / 1024
	nocScale := float64(c.NoCBW) / 64
	return float64(c.PEs())*peAreaMM2 +
		(totalL1KB+float64(c.L2KB))*sramAreaMM2KB +
		float64(c.PEs())*nocAreaMM2PE*nocScale
}

// leakageMW returns the static power of a configuration in mW.
func leakageMW(c hw.Spatial) float64 {
	totalL1KB := float64(c.PEs()) * float64(c.L1Bytes) / 1024
	return float64(c.PEs())*peLeakMW + (totalL1KB+float64(c.L2KB))*sramLeakMWKB
}

// operand identifies the three tensors of a convolution.
type operand int

const (
	opInput operand = iota
	opWeight
	opOutput
)

// dependence[depthwise][p][d] reports whether operand p's footprint varies
// with loop dimension d. Depthwise convolutions couple the input to K instead
// of C. A table, not a function: the model reads it ~40 times per evaluation.
var dependence = [2][3][4]bool{
	{
		opInput:  {mapping.DimC: true, mapping.DimY: true, mapping.DimX: true},
		opWeight: {mapping.DimK: true, mapping.DimC: true},
		opOutput: {mapping.DimK: true, mapping.DimY: true, mapping.DimX: true},
	},
	{
		opInput:  {mapping.DimK: true, mapping.DimY: true, mapping.DimX: true},
		opWeight: {mapping.DimK: true, mapping.DimC: true},
		opOutput: {mapping.DimK: true, mapping.DimY: true, mapping.DimX: true},
	},
}

// breakdown is what the model works out on its way to the metrics: the
// per-resource stream times, the traffic volumes and the dynamic energy by
// source. Evaluate drops it; the package's tests read it.
type breakdown struct {
	computeCycles, nocCycles, dramCycles float64
	nocBytes, dramBytes                  float64
	macPJ, l1PJ, nocPJ, dramPJ           float64
}

// capacityError is the ErrInfeasible of a tile that does not fit its buffer.
// A mapping search rejects a few hundred thousand of these per co-search and
// reads none of them, so the text is formatted only when Error is called,
// and the struct holds integers only — the buffer is an index into
// bufferNames — so a rejection allocates nothing the GC must scan.
type capacityError struct {
	what       buffer
	need, have int // bytes
}

// buffer names the buffer a capacityError overflows.
type buffer uint8

const (
	bufL1Tile buffer = iota
	bufL2WorkingSet
)

var bufferNames = [...]string{bufL1Tile: "L1 tile", bufL2WorkingSet: "L2 working set"}

func (e *capacityError) Error() string {
	return fmt.Sprintf("%v: %s %d B > %d B", ErrInfeasible, bufferNames[e.what], e.need, e.have)
}

func (e *capacityError) Unwrap() error { return ErrInfeasible }

// Bound is the model bound to one hardware configuration: everything the
// arithmetic reads of the hardware, worked out once — the buffer capacities
// and PE extents as floats, which operands the dataflow pins, the partial-sum
// traffic factor, leakage and area. A mapping search binds once per job and
// evaluates every candidate of every layer through it; Evaluate binds per
// call. Both run the one arithmetic path below, so they agree bit for bit.
type Bound struct {
	c            hw.Spatial
	l1Cap, l2Cap float64 // bytes
	pex, pey     float64
	nocBW        float64 // bytes/cycle
	// pinned[p] reports whether the dataflow holds operand p in place:
	// weight-stationary pins weights, output-stationary partial sums.
	pinned [3]bool
	// nocFactor[p] is 2 for partial sums that cross the NoC twice (written
	// back and re-read) because the dataflow does not accumulate in place.
	nocFactor  [3]float64
	leak, area float64 // mW, mm²
}

// Bind works out the hardware-only part of the model for configuration c.
func (e Engine) Bind(c hw.Spatial) Bound {
	b := Bound{
		c:         c,
		l1Cap:     float64(c.L1Bytes),
		l2Cap:     float64(c.L2KB) * 1024,
		pex:       float64(c.PEX),
		pey:       float64(c.PEY),
		nocBW:     float64(c.NoCBW),
		nocFactor: [3]float64{1, 1, 1},
		leak:      leakageMW(c),
		area:      e.Area(c),
	}
	b.pinned[opWeight] = c.Dataflow == hw.WeightStationary
	b.pinned[opOutput] = c.Dataflow == hw.OutputStationary
	if !b.pinned[opOutput] {
		b.nocFactor[opOutput] = 2
	}
	return b
}

// Evaluate returns the PPA of running one layer with mapping m on hardware c.
func (e Engine) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	if err := l.Validate(); err != nil {
		return ppa.Metrics{}, err
	}
	b := e.Bind(c)
	return b.Evaluate(m.Canon(l), &l)
}

// Evaluate returns the PPA of running layer l with mapping m on the bound
// hardware. l must validate (workload.Layer.Validate) and m must be
// canonical for it (mapping.Spatial.Canon), as every schedule a search's
// moves return is; Engine.Evaluate takes any of either.
func (b *Bound) Evaluate(m mapping.Spatial, l *workload.Layer) (ppa.Metrics, error) {
	met, _, err := b.model(m, l)
	return met, err
}

// model is the one implementation of the cost model's arithmetic. It
// allocates nothing on a feasible triple and one capacityError otherwise.
func (b *Bound) model(m mapping.Spatial, l *workload.Layer) (ppa.Metrics, breakdown, error) {
	depthwise := l.Kind == workload.DWConv2D
	depends := &dependence[0]
	if depthwise {
		depends = &dependence[1]
	}

	// Per-PE tile footprints in bytes (int8 activations/weights, int32
	// partial sums held as 2 bytes after requantization headroom). The
	// kernel window is tiled by TR×TS, so the input halo only covers the
	// active taps.
	inTileC := m.TC
	if depthwise {
		inTileC = m.TK
	}
	inTile := float64(inTileC) * float64((m.TY-1)*l.Stride+m.TR) * float64((m.TX-1)*l.Stride+m.TS)
	wTile := float64(m.TK) * float64(m.TC) * float64(m.TR) * float64(m.TS)
	if depthwise {
		wTile = float64(m.TK) * float64(m.TR) * float64(m.TS)
	}
	outTile := 2 * float64(m.TK) * float64(m.TY) * float64(m.TX)

	// Double-buffered L1 residency.
	if 2*(inTile+wTile+outTile) > b.l1Cap {
		return ppa.Metrics{}, breakdown{}, &capacityError{
			what: bufL1Tile, need: int(2 * (inTile + wTile + outTile)), have: b.c.L1Bytes}
	}

	// Loop bounds, tile sizes and spatial extents per dimension. Dim-indexed
	// arrays, not maps, closures or switches: the model runs ~10⁵ times per
	// search iteration. The loops below iterate dimensions and operands in
	// fixed declaration order, which fixes the floating-point operation
	// order the golden digests pin.
	bounds := [4]int{mapping.DimK: l.K, mapping.DimC: l.C, mapping.DimY: l.Y, mapping.DimX: l.X}
	if depthwise {
		bounds[mapping.DimC] = 1
	}
	tile := [4]int{mapping.DimK: m.TK, mapping.DimC: m.TC, mapping.DimY: m.TY, mapping.DimX: m.TX}
	extent := [4]int{1, 1, 1, 1}
	extent[m.SpatY] = b.c.PEY
	extent[m.SpatX] = b.c.PEX // Canon keeps the two distinct

	// temporalTrips is the number of per-PE tiles along d with the spatial
	// extent folded in (tiles executed concurrently across the array).
	var temporalTrips [4]float64
	for d := range temporalTrips {
		tileTrips := math.Ceil(float64(bounds[d]) / float64(tile[d]))
		temporalTrips[d] = math.Ceil(tileTrips / float64(extent[d]))
	}

	// Kernel-window trips: R and S nest innermost (below the Orders
	// permutation) and have no spatial extent.
	tripsR := math.Ceil(float64(l.R) / float64(m.TR))
	tripsS := math.Ceil(float64(l.S) / float64(m.TS))

	// Compute time: every temporal step runs one tile on each active PE.
	macsPerTile := float64(m.TK) * float64(m.TC) * float64(m.TY) * float64(m.TX) *
		float64(m.TR) * float64(m.TS)
	if depthwise {
		macsPerTile = float64(m.TK) * float64(m.TY) * float64(m.TX) * float64(m.TR) * float64(m.TS)
	}
	steps := float64(l.N) * tripsR * tripsS
	for _, t := range temporalTrips {
		steps *= t
	}
	computeCycles := steps * macsPerTile

	// L2 macro-tile residency: the working set concurrently held for the
	// PE array (per-PE tile × spatial extent per dimension).
	var span [4]float64
	for d := range span {
		span[d] = float64(min(tile[d]*extent[d], bounds[d]))
	}
	inHaloY := (span[mapping.DimY]-1)*float64(l.Stride) + float64(m.TR)
	inHaloX := (span[mapping.DimX]-1)*float64(l.Stride) + float64(m.TS)
	inChan := span[mapping.DimC]
	if depthwise {
		inChan = span[mapping.DimK]
	}
	macroIn := inChan * inHaloY * inHaloX
	macroW := span[mapping.DimK] * span[mapping.DimC] * float64(m.TR) * float64(m.TS)
	macroOut := 2 * span[mapping.DimK] * span[mapping.DimY] * span[mapping.DimX]
	l2Need := 2 * (macroIn + macroW + macroOut)
	if l2Need > b.l2Cap {
		return ppa.Metrics{}, breakdown{}, &capacityError{
			what: bufL2WorkingSet, need: int(l2Need), have: int(b.l2Cap)}
	}

	// L2 -> L1 (NoC) traffic. An operand's tile is fetched once per trip of
	// every loop, except loops it does not depend on once the dataflow pins
	// it: weight-stationary pins weights, output-stationary pins outputs.
	nocBytes := 0.0
	tiles := [3]float64{opInput: inTile, opWeight: wTile, opOutput: outTile}
	for p := opInput; p <= opOutput; p++ {
		pinned := b.pinned[p]
		trips := float64(l.N)
		for d, t := range temporalTrips {
			if depends[p][d] || !pinned {
				trips *= t
			}
		}
		// Kernel-window trips: inputs and weights depend on R/S; outputs
		// re-circulate partial sums across the window unless pinned.
		if p != opOutput || !pinned {
			trips *= tripsR * tripsS
		}
		// The spatial copies along dimensions the operand depends on are
		// distinct data; along independent dimensions the NoC multicasts,
		// so only one copy crosses the L2 port.
		spatialCopies := 1.0
		if depends[p][m.SpatX] {
			spatialCopies *= b.pex
		}
		if depends[p][m.SpatY] {
			spatialCopies *= b.pey
		}
		nocBytes += trips * tiles[p] * spatialCopies * b.nocFactor[p]
	}

	// DRAM -> L2 traffic. An operand that fits in L2 alongside the others
	// streams once; otherwise it is refetched once per macro trip of each
	// loop it does not depend on that is ordered outside its own loops.
	order := mapping.Orders[m.Order]
	footprint := [3]float64{
		opInput:  float64(l.InputBytes()),
		opWeight: float64(l.WeightBytes()),
		opOutput: float64(l.OutputBytes()),
	}
	dramBytes := 0.0
	for p := opInput; p <= opOutput; p++ {
		fp := footprint[p]
		resident := fp
		if p == opOutput {
			resident *= 2
		}
		reload := 1.0
		if resident > b.l2Cap/3 {
			// Loops ordered outside the outermost loop the operand depends
			// on force a reload per macro trip.
			for _, d := range order {
				if depends[p][d] {
					break
				}
				reload *= math.Ceil(float64(bounds[d]) / float64(tile[d]*extent[d]))
			}
		}
		factor := 1.0
		if p == opOutput && reload > 1 {
			factor = 2 // read-modify-write of spilled partial sums
		}
		dramBytes += fp * reload * factor
	}

	// Latency: perfect double buffering overlaps the three streams.
	nocCycles := nocBytes / b.nocBW
	dramCycles := dramBytes / dramBWBytesPerCycle
	cycles := max(computeCycles, nocCycles, dramCycles)
	// Pipeline fill/drain: one tile of latency per temporal step wave.
	cycles += 64 + math.Sqrt(steps)
	latencyMs := cycles / (ClockGHz * 1e6)

	// Energy.
	usefulMACs := float64(l.MACs())
	l1Bytes := usefulMACs * 3 * l1RegReuse
	bd := breakdown{
		computeCycles: computeCycles, nocCycles: nocCycles, dramCycles: dramCycles,
		nocBytes: nocBytes, dramBytes: dramBytes,
		macPJ:  usefulMACs * macEnergyPJ,
		l1PJ:   l1Bytes * l1EnergyPJ,
		nocPJ:  nocBytes * l2EnergyPJ,
		dramPJ: dramBytes * dramEnergyPJ,
	}
	energyUJ := (bd.macPJ + bd.l1PJ + bd.nocPJ + bd.dramPJ) * 1e-6
	powerMW := energyUJ/latencyMs + b.leak
	energyUJ += b.leak * latencyMs // fold leakage into total energy

	met := ppa.Metrics{
		LatencyMs: latencyMs,
		PowerMW:   powerMW,
		AreaMM2:   b.area,
		EnergyUJ:  energyUJ,
	}
	if !met.Valid() {
		return ppa.Metrics{}, breakdown{}, fmt.Errorf("maestro: produced invalid metrics %+v for %v / %v", met, b.c, *l)
	}
	return met, bd, nil
}
