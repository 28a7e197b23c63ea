package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"

	"unico"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/pareto"
)

// outcome is the result of one co-search in a form both the facade and
// core.RunContext map onto, so a timed and a traced run compare directly.
type outcome struct {
	front []design
	evals int
	hours float64
}

// design is one front member: its encoded hardware point, PPA and robustness.
type design struct {
	x                                 []float64
	latency, power, area, sensitivity float64
}

func fromFacade(res *unico.Result) outcome {
	out := outcome{evals: res.Evaluations, hours: res.SimulatedHours}
	for _, d := range res.Front {
		out.front = append(out.front, design{d.X, d.LatencyMs, d.PowerMW, d.AreaMM2, d.Sensitivity})
	}
	return out
}

func fromCore(res core.Result) outcome {
	out := outcome{evals: res.Evals, hours: res.Hours}
	for _, c := range res.Front {
		out.front = append(out.front, design{c.X, c.Metrics.LatencyMs, c.Metrics.PowerMW, c.Metrics.AreaMM2, c.Sensitivity})
	}
	return out
}

// digest is the SHA-256 of every bit of the result: front order, each
// member's point, PPA and sensitivity, the evaluation count and the simulated
// hours. Two co-searches agree exactly or their digests differ.
func (o outcome) digest() string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(len(o.front)))
	for _, d := range o.front {
		word(uint64(len(d.x)))
		for _, v := range d.x {
			float(v)
		}
		float(d.latency)
		float(d.power)
		float(d.area)
		float(d.sensitivity)
	}
	word(uint64(o.evals))
	float(o.hours)
	return hex.EncodeToString(h.Sum(nil))
}

// points are the front's (latency, power, area) vectors.
func (o outcome) points() [][]float64 {
	pts := make([][]float64, len(o.front))
	for i, d := range o.front {
		pts[i] = []float64{d.latency, d.power, d.area}
	}
	return pts
}

// hypervolume is the volume the front dominates inside the box between the
// origin and ref, as a fraction of that box: 0 for an empty front, towards 1
// as the front closes on the origin. ref is frozen per workload, so the
// number compares across commits and seeds.
func hypervolume(o outcome, ref [3]float64) float64 {
	return pareto.Hypervolume(o.points(), ref[:]) / (ref[0] * ref[1] * ref[2])
}

// caps are the workload's deployment constraints (0 = none), as its
// platform enforces them.
func (s spec) caps() (powerMW, areaMM2 float64) {
	if s.kind == kindAscend {
		return 0, 200
	}
	return s.scenario.PowerCapMW(), 0
}

// checkOutcome holds one co-search's result to what must be true of every
// result: a non-empty front of mutually non-dominated designs inside the
// caps, and the frozen evaluation count and simulated cost.
func checkOutcome(s spec, o outcome) []string {
	var problems []string
	if len(o.front) == 0 {
		return []string{"empty front"}
	}
	powerCap, areaCap := s.caps()
	pts := o.points()
	for i, p := range pts {
		if powerCap > 0 && p[1] > powerCap {
			problems = append(problems, fmt.Sprintf("front[%d] draws %v mW, over the %v mW cap", i, p[1], powerCap))
		}
		if areaCap > 0 && p[2] > areaCap {
			problems = append(problems, fmt.Sprintf("front[%d] takes %v mm², over the %v mm² cap", i, p[2], areaCap))
		}
		for j, q := range pts {
			if i != j && pareto.Dominates(q, p) {
				problems = append(problems, fmt.Sprintf("front[%d] is dominated by front[%d]", i, j))
			}
		}
	}
	if s.evals != 0 && o.evals != s.evals {
		problems = append(problems, fmt.Sprintf("Evaluations = %d, frozen at %d", o.evals, s.evals))
	}
	if s.simHours != 0 && math.Abs(o.hours-s.simHours) > 1e-9*s.simHours {
		problems = append(problems, fmt.Sprintf("SimulatedHours = %v, frozen at %v", o.hours, s.simHours))
	}
	return problems
}

// checkArtifacts verifies what a co-search must leave behind and then clears
// it away: a durable one, a checkpoint checkpoint.Load accepts and a flight
// record with every iteration and a summary; a fleet one, no job on any
// shard.
func checkArtifacts(e *env, files durableFiles) []string {
	var problems []string
	if files.checkpoint != "" {
		if rs, err := checkpoint.Load(files.checkpoint); err != nil {
			problems = append(problems, fmt.Sprintf("checkpoint does not load: %v", err))
		} else if rs.LastIter() != e.spec.iters {
			problems = append(problems, fmt.Sprintf("checkpoint ends at iteration %d of %d", rs.LastIter(), e.spec.iters))
		}
		if d, skipped, err := flightrec.Load(files.flight); err != nil {
			problems = append(problems, fmt.Sprintf("flight record does not load: %v", err))
		} else if len(d.Iters) != e.spec.iters || d.Summary == nil || skipped != 0 {
			problems = append(problems, fmt.Sprintf("flight record has %d of %d iterations, summary %t, %d skipped lines",
				len(d.Iters), e.spec.iters, d.Summary != nil, skipped))
		}
		for _, f := range []string{files.checkpoint, files.checkpoint + ".journal", files.flight} {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				problems = append(problems, err.Error())
			}
		}
	}
	if e.fleet != nil {
		if n := e.fleet.jobsLeft(); n != 0 {
			problems = append(problems, fmt.Sprintf("%d jobs left on the shards", n))
		}
	}
	return problems
}
