package dist

import (
	"fmt"
	"math"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
)

// This file is the shape of an advance's answer on the wire, the one place
// it is decided: the worker packs it, the client checks and unpacks it, and
// a router relays its bytes untouched.
//
// A job is a pure function of (spec, cumulative budget) and the master
// already holds every point up to the request's Seen, so the answer carries
// only the points after it: each point of a search crosses the wire once,
// however many installments, resends or fail-overs it takes. The points go
// as columns, one array per field, with a point's budget implied by its
// position (a mapsearch.NetworkSearcher appends exactly one point to each
// history per budget unit) and equal neighbours folded into runs — the
// best-so-far History stays constant between improvements, so it is a few
// runs. This is the only serialized form of a ppa.History: no checkpoint or
// flight record stores one.

// jobAnswer is the JSON body of an advance's answer: the job's state at
// Spent, carrying the points after From, the request's Seen. A rejected
// request's answer carries only Error.
type jobAnswer struct {
	ID       string      `json:"id"`
	From     int         `json:"from"`
	Spent    int         `json:"spent"`
	History  columns     `json:"history"`
	Raw      columns     `json:"raw"`
	Best     ppa.Metrics `json:"best"`
	Feasible bool        `json:"feasible"`
	Error    string      `json:"error,omitempty"`
}

// columns is a run-length encoded stretch of a history: Runs[i] consecutive
// points hold the values at index i of every other column.
type columns struct {
	Runs    []int     `json:"runs"`
	Loss    []float64 `json:"loss"`
	Latency []float64 `json:"latency"`
	Power   []float64 `json:"power"`
	Area    []float64 `json:"area"`
	Energy  []float64 `json:"energy"`
}

// packAnswer is the worker's answer for job key, whose searcher s has been
// brought to the request's budget, to a caller that holds its points up to
// from.
func packAnswer(key string, from int, s mapsearch.Searcher) jobAnswer {
	a := jobAnswer{
		ID:      key,
		From:    from,
		Spent:   s.Spent(),
		History: packColumns(s.History()[from:]),
		Raw:     packColumns(s.RawHistory()[from:]),
	}
	if met, ok := s.Best(); ok {
		a.Best, a.Feasible = met, true
	}
	return a
}

func packColumns(h ppa.History) columns {
	var c columns
	for i, p := range h {
		if i > 0 && samePoint(p, h[i-1]) {
			c.Runs[len(c.Runs)-1]++
			continue
		}
		c.Runs = append(c.Runs, 1)
		c.Loss = append(c.Loss, p.Loss)
		c.Latency = append(c.Latency, p.M.LatencyMs)
		c.Power = append(c.Power, p.M.PowerMW)
		c.Area = append(c.Area, p.M.AreaMM2)
		c.Energy = append(c.Energy, p.M.EnergyUJ)
	}
	return c
}

// samePoint compares two points' values bit for bit, so a run never folds a
// -0 into a 0.
func samePoint(a, b ppa.Point) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Loss, b.Loss) && same(a.M.LatencyMs, b.M.LatencyMs) && same(a.M.PowerMW, b.M.PowerMW) &&
		same(a.M.AreaMM2, b.M.AreaMM2) && same(a.M.EnergyUJ, b.M.EnergyUJ)
}

// unpack checks a's points against the request they answer and returns the
// state they describe, holding only the points after req.Seen. Every check
// comes before a point is allocated, and none is allocated beyond the
// Budget − Seen the request asked for, whatever the answer claims.
func (a *jobAnswer) unpack(req AdvanceRequest) (JobState, error) {
	if a.From != req.Seen || a.Spent != req.Budget {
		return JobState{}, fmt.Errorf("answers (%d, %d] for the asked (%d, %d]", a.From, a.Spent, req.Seen, req.Budget)
	}
	hist, err := a.History.points(a.From, a.Spent-a.From)
	if err != nil {
		return JobState{}, fmt.Errorf("history: %w", err)
	}
	raw, err := a.Raw.points(a.From, a.Spent-a.From)
	if err != nil {
		return JobState{}, fmt.Errorf("raw: %w", err)
	}
	return JobState{ID: a.ID, Spent: a.Spent, History: hist, Raw: raw, Best: a.Best, Feasible: a.Feasible}, nil
}

// points expands c into the n points after budget from; unless c holds
// exactly n points in well-formed runs it is an error, and allocates
// nothing.
func (c columns) points(from, n int) (ppa.History, error) {
	k := len(c.Runs)
	if len(c.Loss) != k || len(c.Latency) != k || len(c.Power) != k || len(c.Area) != k || len(c.Energy) != k {
		return nil, fmt.Errorf("ragged columns: %d runs, %d/%d/%d/%d/%d values",
			k, len(c.Loss), len(c.Latency), len(c.Power), len(c.Area), len(c.Energy))
	}
	total := 0
	for _, r := range c.Runs {
		if r < 1 {
			return nil, fmt.Errorf("run of %d", r)
		}
		if r > n-total {
			return nil, fmt.Errorf("more than the %d points asked for", n)
		}
		total += r
	}
	if total != n {
		return nil, fmt.Errorf("%d points, asked for %d", total, n)
	}
	if n == 0 {
		return nil, nil
	}
	h := make(ppa.History, 0, n)
	for i, r := range c.Runs {
		p := ppa.Point{Loss: c.Loss[i], M: ppa.Metrics{
			LatencyMs: c.Latency[i], PowerMW: c.Power[i], AreaMM2: c.Area[i], EnergyUJ: c.Energy[i],
		}}
		for range r {
			p.Budget = from + len(h) + 1
			h = append(h, p)
		}
	}
	return h, nil
}
