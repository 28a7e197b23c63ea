// Package platform wires the hardware spaces, cost models and
// mapping-search tools into the core.Platform interface the co-optimizer
// drives — one constructor per accelerator platform of the paper's
// evaluation (Section 4.1).
package platform

import (
	"unico/internal/camodel"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/workload"
)

// Spatial is the open-source spatial-accelerator platform: the Fig. 1
// template searched over MAESTRO-like analytical PPA.
type Spatial struct {
	// Engine is the PPA oracle mapping searches evaluate against. The
	// constructor installs maestro.Engine; replace it to substitute a stub.
	Engine mapsearch.SpatialEngine
	space  *hw.SpatialSpace
	// net is the combined workload's search, built once: its layer order is
	// the same for every hardware candidate, so every job shares it.
	net *mapsearch.Network
}

// NewSpatial builds the platform for a deployment scenario and workload set.
// Its mapping searcher is the annealer; the Algo is ignored (see
// mapsearch.Algo).
func NewSpatial(sc hw.Scenario, ws []workload.Workload, _ mapsearch.Algo) *Spatial {
	if len(ws) == 0 {
		panic("platform: NewSpatial needs at least one workload")
	}
	return &Spatial{
		Engine: maestro.Engine{},
		space:  hw.NewSpatialSpace(sc),
		net:    mapsearch.NewNetwork(workload.Combine(ws)),
	}
}

// Space returns the hardware design space.
func (p *Spatial) Space() mobo.Space { return p.space }

// Workload returns the (combined) workload under co-optimization.
func (p *Spatial) Workload() workload.Workload { return p.net.Workload() }

// NewJob builds the mapping search for the hardware at x.
func (p *Spatial) NewJob(x []float64, seed int64) mapsearch.Searcher {
	cfg := p.space.Decode(x)
	return p.net.Spatial(p.Engine, cfg, seed)
}

// EvalCostSeconds is the simulated cost of one budget unit: one network
// mapping evaluation, i.e. one analytical-model call per layer.
func (p *Spatial) EvalCostSeconds() float64 {
	return p.Engine.EvalCostSeconds() * float64(len(p.net.Workload().Layers))
}

// Describe renders the hardware at x.
func (p *Spatial) Describe(x []float64) string { return p.space.Describe(x) }

// PowerCapMW is the scenario's deployment power constraint.
func (p *Spatial) PowerCapMW() float64 { return p.space.Scenario().PowerCapMW() }

// AreaCapMM2 is unconstrained on the open-source platform.
func (p *Spatial) AreaCapMM2() float64 { return 0 }

// Ascend is the Ascend-like industrial platform: the DaVinci-style core
// searched over the cycle-level simulator, under the 200 mm² edge-chip area
// constraint of paper Section 4.6.
type Ascend struct {
	// Engine is the PPA oracle schedule searches evaluate against. The
	// constructor installs camodel.Engine; replace it to substitute a stub.
	Engine mapsearch.AscendEngine
	space  *hw.AscendSpace
	net    *mapsearch.Network // shared by every job, as on Spatial
}

// ascendAreaCapMM2 is the edge-chip area constraint of paper Section 4.6.
const ascendAreaCapMM2 = 200

// NewAscend builds the Ascend-like platform for a workload set. Its schedule
// searcher is the depth-first buffer-fusion search; the Algo is ignored (see
// mapsearch.Algo).
func NewAscend(ws []workload.Workload, _ mapsearch.Algo) *Ascend {
	if len(ws) == 0 {
		panic("platform: NewAscend needs at least one workload")
	}
	return &Ascend{
		Engine: camodel.Engine{},
		space:  hw.NewAscendSpace(),
		net:    mapsearch.NewNetwork(workload.Combine(ws)),
	}
}

// Space returns the hardware design space.
func (p *Ascend) Space() mobo.Space { return p.space }

// AscendSpace returns the concrete space for decoding.
func (p *Ascend) AscendSpace() *hw.AscendSpace { return p.space }

// Workload returns the (combined) workload under co-optimization.
func (p *Ascend) Workload() workload.Workload { return p.net.Workload() }

// NewJob builds the schedule search for the core at x.
func (p *Ascend) NewJob(x []float64, seed int64) mapsearch.Searcher {
	cfg := p.space.Decode(x)
	return p.net.Ascend(p.Engine, cfg, seed)
}

// EvalCostSeconds is the simulated cost of one budget unit: one network
// schedule evaluation, i.e. one CAModel call (minutes each) per layer.
func (p *Ascend) EvalCostSeconds() float64 {
	return p.Engine.EvalCostSeconds() * float64(len(p.net.Workload().Layers))
}

// Describe renders the core at x.
func (p *Ascend) Describe(x []float64) string { return p.space.Describe(x) }

// PowerCapMW is unconstrained in the Fig. 11 study (power is an objective).
func (p *Ascend) PowerCapMW() float64 { return 0 }

// AreaCapMM2 is the 200 mm² edge-chip constraint.
func (p *Ascend) AreaCapMM2() float64 { return ascendAreaCapMM2 }
