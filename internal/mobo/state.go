package mobo

import (
	"fmt"
	"math/rand"

	"unico/internal/durable"
	"unico/internal/gp"
)

// countingSource wraps the optimizer's random source and counts how many
// values have been drawn from it. math/rand's source advances by exactly one
// step per Int63 or Uint64 call, so the count is a stream position: two
// sources with the same seed and the same position produce the same future
// draws. That is what lets a resumed run replay the optimizer's RNG without
// serializing the source's internal state — the checkpoint records the
// position, and SeekRNG burns draws until a fresh source catches up.
type countingSource struct {
	src rand.Source64
	pos uint64
}

func newCountingSource(seed int64) *countingSource {
	// rand.NewSource's concrete type implements Source64 (documented since
	// Go 1.8), so the assertion cannot fail.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.pos++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.pos++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.pos = 0
}

// RNGPos returns the optimizer's RNG stream position: how many values have
// been drawn since the source was seeded.
func (o *Optimizer) RNGPos() uint64 { return o.src.pos }

// SeekRNG fast-forwards the optimizer's RNG to stream position pos by
// discarding draws. Seeking backwards is impossible for a forward-only
// stream and reports an error.
func (o *Optimizer) SeekRNG(pos uint64) error {
	if pos < o.src.pos {
		return fmt.Errorf("mobo: cannot seek RNG backwards (at %d, want %d)", o.src.pos, pos)
	}
	for o.src.pos < pos {
		o.src.Uint64()
	}
	return nil
}

// SurrogateState pins one objective's fitted surrogate: the
// hyperparameters and jitter that rebuild its factor bit-identically via
// gp.FitWithParams, plus the per-point marginal-likelihood reference the
// warm-start cadence compares against.
type SurrogateState struct {
	Lengthscale float64 `json:"lengthscale"`
	Variance    float64 `json:"variance"`
	Noise       float64 `json:"noise"`
	Jitter      float64 `json:"jitter"`
	RefLML      float64 `json:"ref_lml"`
}

// State is the serializable state of an Optimizer: everything Restore needs
// to rebuild an explorer that behaves bit-identically to the original. The
// duplicate-suppression set and normalization bounds are not stored — they
// are deterministic functions of the observation lists and are recomputed
// on restore. The Gaussian processes are rebuilt from Surrogates: a live
// optimizer's GPs are not in general the output of a fresh grid search on
// the current training set (hyperparameters warm-start and factors extend
// incrementally), so the state pins each surrogate's parameters instead of
// re-deciding them.
type State struct {
	// Seed is the seed the optimizer was built with.
	Seed int64 `json:"seed"`
	// RNGPos is the RNG stream position (draws consumed since seeding).
	RNGPos uint64 `json:"rng_pos"`
	// Train is the surrogate training set, in admission order.
	Train []Observation `json:"train"`
	// All is every observation ever ingested, in ingestion order.
	All []Observation `json:"all"`
	// VBest is the best ParEGO scalar seen by the high-fidelity rule.
	VBest durable.ExtFloat `json:"v_best"`
	// DSet is the distance set the Upper Update Limit is quantiled from.
	DSet []float64 `json:"d_set"`
	// UUL is the current Upper Update Limit.
	UUL durable.ExtFloat `json:"uul"`
	// Surrogates pins each objective's fitted GP (nil when the optimizer
	// held no fitted model at export time).
	Surrogates []SurrogateState `json:"surrogates,omitempty"`
	// SinceRefit counts surrogate updates since the last full refit.
	SinceRefit int `json:"since_refit,omitempty"`
}

// Export captures the optimizer's state for checkpointing. The returned
// State aliases no optimizer-internal memory.
func (o *Optimizer) Export() State {
	st := State{
		Seed:       o.seed,
		RNGPos:     o.src.pos,
		Train:      cloneObservations(o.train),
		All:        cloneObservations(o.all),
		VBest:      durable.ExtFloat(o.vBest),
		DSet:       append([]float64(nil), o.dSet...),
		UUL:        durable.ExtFloat(o.uul),
		SinceRefit: o.sinceRefit,
	}
	if o.gps != nil {
		st.Surrogates = make([]SurrogateState, len(o.gps))
		for j, g := range o.gps {
			p, _ := g.Params()
			st.Surrogates[j] = SurrogateState{
				Lengthscale: p.Lengthscale,
				Variance:    p.Variance,
				Noise:       p.Noise,
				Jitter:      g.Jitter(),
				RefLML:      o.refLML[j],
			}
		}
	}
	return st
}

// Restore rebuilds an optimizer from an exported State. space and cfg must
// match the ones the state was exported under; the observation lists are
// validated against cfg's objective count. The restored optimizer's future
// SuggestBatch/Update behaviour is bit-identical to the original's.
func Restore(space Space, cfg Config, st State) (*Optimizer, error) {
	o := New(space, cfg, st.Seed)
	n, dim := o.NumObjectives(), space.Dim()
	for _, list := range [][]Observation{st.All, st.Train} {
		for i, ob := range list {
			if len(ob.Y) != n {
				return nil, fmt.Errorf("mobo: restore: observation %d has %d objectives, config wants %d", i, len(ob.Y), n)
			}
			if len(ob.X) != dim {
				return nil, fmt.Errorf("mobo: restore: observation %d has %d coordinates, space has %d", i, len(ob.X), dim)
			}
		}
	}
	o.all = cloneObservations(st.All)
	o.train = cloneObservations(st.Train)
	for _, ob := range o.all {
		o.seen[o.space.Key(ob.X)] = true
	}
	o.vBest = float64(st.VBest)
	o.dSet = append([]float64(nil), st.DSet...)
	o.uul = float64(st.UUL)
	if len(o.all) > 0 {
		o.refreshBounds()
	}
	if len(st.Surrogates) > 0 {
		// Rebuild the pinned surrogates exactly: a live optimizer's GPs
		// may have warm-started hyperparameters and incrementally extended
		// factors, which a fresh grid search would not reproduce.
		if len(st.Surrogates) != n {
			return nil, fmt.Errorf("mobo: restore: %d surrogates, config wants %d objectives", len(st.Surrogates), n)
		}
		// Objectives pinned to equal parameters and jitter get one factor,
		// as the live optimizer's did, so the restored run extends exactly
		// as often as the uninterrupted one.
		ps := make([]gp.Params, n)
		jitters := make([]float64, n)
		refLML := make([]float64, n)
		for j, ss := range st.Surrogates {
			ps[j] = gp.Params{Lengthscale: ss.Lengthscale, Variance: ss.Variance, Noise: ss.Noise}
			jitters[j] = ss.Jitter
			refLML[j] = ss.RefLML
		}
		xs, ys := o.trainTargets(o.train)
		gps, err := gp.FitWithParamsAll(xs, ys, ps, jitters)
		if err != nil {
			return nil, fmt.Errorf("mobo: restore: rebuild surrogates: %w", err)
		}
		o.gps, o.refLML, o.sinceRefit = gps, refLML, st.SinceRefit
	} else {
		// Legacy state (or a cold optimizer): fall back to a fresh fit.
		o.fit()
	}
	if err := o.SeekRNG(st.RNGPos); err != nil {
		return nil, err
	}
	return o, nil
}

// cloneObservations deep-copies an observation list.
func cloneObservations(obs []Observation) []Observation {
	if obs == nil {
		return nil
	}
	out := make([]Observation, len(obs))
	for i, ob := range obs {
		out[i] = Observation{
			X: append([]float64(nil), ob.X...),
			Y: append([]float64(nil), ob.Y...),
		}
	}
	return out
}
